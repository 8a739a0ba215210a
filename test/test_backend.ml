(* The multi-backend emission layer (lib/backend).

   Four properties are pinned, per acceptance criteria of the registry/
   backend refactor.

   1. Byte identity: the default f77 emission of every suite code is
      byte-for-byte equal to the committed golden in [golden/f77/] —
      the refactor (pipeline interpreter + backend registry) must not
      move a single byte of the historical default output — and
      [Backend.Registry.default] emits exactly [Pipeline.output_source].

   2. C goldens: [Backend.Cgen] output equals the committed goldens in
      [golden/c/] (each was compiled with gcc -fopenmp and its stdout
      diffed against the interpreter oracle when generated; the
      [polaris native] lane re-checks on toolchain hosts) and emission
      is deterministic.

   3. Clause equality: the PRIVATE/LASTPRIVATE/REDUCTION sets the
      OpenMP backends print are exactly the sets the real parallel
      executor ([Machine.Parexec]) privatizes and reduces at run time —
      asserted against the executor's per-region logs, suite-wide.

   4. Round-trip fixed point: parse ∘ unparse is idempotent on the f77
      surface — 100 fuzzed programs reach a fixed point after one
      round trip, so the f77 backend's output is stable input for our
      own frontend (the property the daemon's re-compile lanes and the
      validate matrix lean on). *)

open Fir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let compiled_suite =
  (* one compile per suite code, shared across test cases *)
  lazy
    (List.map
       (fun (c : Suite.Code.t) ->
         (c, Core.Pipeline.compile (Core.Config.polaris ()) c.source))
       Suite.Registry.all)

(* ------------------------------------------------------------------ *)
(* 1. default output is byte-stable against the committed goldens      *)

let test_f77_golden_identity () =
  List.iter
    (fun ((c : Suite.Code.t), t) ->
      let golden =
        read_file
          (Printf.sprintf "golden/f77/%s.f" (String.lowercase_ascii c.name))
      in
      let got = Core.Pipeline.output_source t in
      if not (String.equal golden got) then
        Alcotest.failf "%s: default f77 output drifted from golden/f77/%s.f"
          c.name
          (String.lowercase_ascii c.name))
    (Lazy.force compiled_suite)

let test_default_backend_is_output_source () =
  let b = Backend.Registry.default in
  Alcotest.(check string) "default name" "f77" b.Backend.Registry.b_name;
  List.iter
    (fun ((c : Suite.Code.t), t) ->
      Alcotest.(check bool)
        (c.name ^ ": registry default = pipeline output")
        true
        (String.equal
           (b.Backend.Registry.b_emit t.Core.Pipeline.program)
           (Core.Pipeline.output_source t)))
    (Lazy.force compiled_suite)

(* ------------------------------------------------------------------ *)
(* 2. C backend goldens + determinism                                  *)

let test_c_golden_identity () =
  List.iter
    (fun ((c : Suite.Code.t), t) ->
      let golden =
        read_file
          (Printf.sprintf "golden/c/%s.c" (String.lowercase_ascii c.name))
      in
      let got = Backend.Cgen.emit t.Core.Pipeline.program in
      if not (String.equal golden got) then
        Alcotest.failf "%s: C output drifted from golden/c/%s.c" c.name
          (String.lowercase_ascii c.name))
    (Lazy.force compiled_suite)

let test_c_deterministic () =
  List.iter
    (fun ((c : Suite.Code.t), t) ->
      let a = Backend.Cgen.emit t.Core.Pipeline.program in
      let b = Backend.Cgen.emit t.Core.Pipeline.program in
      Alcotest.(check bool) (c.name ^ ": C emission deterministic") true
        (String.equal a b))
    (Lazy.force compiled_suite)

(* every backend that claims [b_reparses] must, under both
   configurations and for every suite code, emit source our own frontend
   accepts and that prints what the transformed program prints *)
let test_reparse_lane () =
  List.iter
    (fun (cfg : Core.Config.t) ->
      List.iter
        (fun (c : Suite.Code.t) ->
          let prog = (Core.Pipeline.compile cfg c.source).Core.Pipeline.program in
          let want = (Machine.Interp.run prog).Machine.Interp.output in
          List.iter
            (fun (b : Backend.Registry.t) ->
              if b.b_reparses then
                match Frontend.Parser.parse_string (b.b_emit prog) with
                | exception e ->
                  Alcotest.failf "%s x %s x %s does not re-parse: %s" cfg.name
                    b.b_name c.name (Printexc.to_string e)
                | again ->
                  if (Machine.Interp.run again).Machine.Interp.output <> want then
                    Alcotest.failf "%s x %s x %s: re-parsed output prints differently"
                      cfg.name b.b_name c.name)
            Backend.Registry.all)
        Suite.Registry.all)
    [ Core.Config.polaris (); Core.Config.baseline () ]

(* ------------------------------------------------------------------ *)
(* 3. emitted clauses = executor's runtime sets                        *)

let find_loop (prog : Program.t) sid =
  List.find_map
    (fun (u : Punit.t) ->
      List.find_map
        (fun ((s : Ast.stmt), d) -> if s.sid = sid then Some (u, d) else None)
        (Stmt.loops u.pu_body))
    (Program.units prog)

let sorted = List.sort_uniq String.compare

let test_clauses_match_executor () =
  let regions_seen = ref 0 in
  List.iter
    (fun ((c : Suite.Code.t), t) ->
      let prog = t.Core.Pipeline.program in
      (* procs must be >= 2: the executor short-circuits to the serial
         interpreter (and records no regions) on a single domain *)
      let _, stats = Machine.Parexec.run_full ~procs:2 prog in
      List.iter
        (fun (ri : Machine.Parexec.region_info) ->
          incr regions_seen;
          match find_loop prog ri.ri_sid with
          | None ->
            Alcotest.failf "%s: executor region sid %d not found in program"
              c.name ri.ri_sid
          | Some (u, d) ->
            let cl = Backend.Clauses.of_loop u.pu_symtab d in
            Alcotest.(check (list string))
              (Printf.sprintf "%s %s: PRIVATE∪LASTPRIVATE = executor privates"
                 c.name ri.ri_index)
              (sorted ri.ri_privates)
              (Backend.Clauses.private_union cl);
            Alcotest.(check (list string))
              (Printf.sprintf "%s %s: LASTPRIVATE" c.name ri.ri_index)
              (sorted ri.ri_lastprivates)
              (sorted cl.c_lastprivate);
            Alcotest.(check (list string))
              (Printf.sprintf "%s %s: REDUCTION" c.name ri.ri_index)
              (List.sort compare
                 (List.map
                    (fun (v, op) -> v ^ ":" ^ Backend.Clauses.op_name op)
                    ri.ri_reductions))
              (List.sort compare
                 (List.map
                    (fun (v, op) -> v ^ ":" ^ Backend.Clauses.op_name op)
                    cl.c_reductions)))
        stats.Machine.Parexec.region_infos)
    (Lazy.force compiled_suite);
  (* the property is vacuous if the executor never ran a region *)
  if !regions_seen = 0 then
    Alcotest.fail "no parallel regions executed across the whole suite"

(* ------------------------------------------------------------------ *)
(* 4. parse ∘ unparse fixed point (100 fuzzed programs)                *)

let test_roundtrip_fixed_point () =
  for seed = 1 to 100 do
    let src = Test_fuzz.gen_program (Util.Prng.create seed) in
    let once =
      Frontend.Unparse.program_to_string (Frontend.Parser.parse_string src)
    in
    let twice =
      Frontend.Unparse.program_to_string (Frontend.Parser.parse_string once)
    in
    if not (String.equal once twice) then
      Alcotest.failf "seed %d: unparse is not a fixed point after one trip"
        seed
  done

(* the committed f77 goldens are valid input for our own frontend
   (they are not plain parse∘unparse fixed points: the CPOLARIS$
   directive comments they carry are analysis results, re-derived by
   the pipeline rather than parsed back) *)
let test_golden_reparses () =
  List.iter
    (fun (c : Suite.Code.t) ->
      let path =
        Printf.sprintf "golden/f77/%s.f" (String.lowercase_ascii c.name)
      in
      let golden = read_file path in
      try ignore (Frontend.Parser.parse_string golden)
      with e ->
        Alcotest.failf "%s does not re-parse: %s" path (Printexc.to_string e))
    Suite.Registry.all

let tests =
  [ Alcotest.test_case "f77 golden identity (16 codes)" `Quick
      test_f77_golden_identity;
    Alcotest.test_case "default backend = output_source" `Quick
      test_default_backend_is_output_source;
    Alcotest.test_case "C golden identity (16 codes)" `Quick
      test_c_golden_identity;
    Alcotest.test_case "C emission deterministic" `Quick test_c_deterministic;
    Alcotest.test_case "reparse lane (b_reparses backends)" `Quick
      test_reparse_lane;
    Alcotest.test_case "clauses = executor runtime sets" `Quick
      test_clauses_match_executor;
    Alcotest.test_case "roundtrip fixed point (100 seeds)" `Quick
      test_roundtrip_fixed_point;
    Alcotest.test_case "f77 goldens re-parse" `Quick test_golden_reparses ]
