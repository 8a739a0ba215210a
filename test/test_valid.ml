(* Translation-validation subsystem: the ULP comparator, the
   differential oracle, per-pass snapshot localization (including the
   mutation smoke test required for lib/valid: a deliberately broken
   pass must be caught AND attributed to the right stage), the flight
   recorder, and the speculative checkpoint/restore path. *)

open Fir

let parse = Frontend.Parser.parse_string

(* ------------------------------------------------------------------ *)
(* Comparators                                                         *)

let test_ulp_diff () =
  Alcotest.(check int) "equal floats" 0 (Valid.Oracle.ulp_diff 1.0 1.0);
  Alcotest.(check int) "+0 vs -0" 0 (Valid.Oracle.ulp_diff 0.0 (-0.0));
  Alcotest.(check int) "adjacent floats" 1
    (Valid.Oracle.ulp_diff 1.0 (Float.succ 1.0));
  Alcotest.(check int) "two ulps" 2
    (Valid.Oracle.ulp_diff 1.0 (Float.succ (Float.succ 1.0)));
  Alcotest.(check int) "across zero" 2
    (Valid.Oracle.ulp_diff (Float.succ 0.0) (Float.pred 0.0));
  Alcotest.(check int) "nan vs nan" 0 (Valid.Oracle.ulp_diff Float.nan Float.nan);
  Alcotest.(check bool) "nan vs number" true
    (Valid.Oracle.ulp_diff Float.nan 1.0 = max_int)

let test_value_close () =
  let open Machine.Value in
  let c = { Valid.Oracle.ulp_tol = 2; rel_tol = 0.0 } in
  Alcotest.(check bool) "ints bit-for-bit" false
    (Valid.Oracle.value_close c (Int 3) (Int 4));
  Alcotest.(check bool) "ints equal" true
    (Valid.Oracle.value_close c (Int 3) (Int 3));
  Alcotest.(check bool) "floats within tolerance" true
    (Valid.Oracle.value_close c (Real 1.0) (Real (Float.succ 1.0)));
  Alcotest.(check bool) "floats beyond tolerance" false
    (Valid.Oracle.value_close c (Real 1.0) (Real 1.0000001))

let test_data_close () =
  let open Machine.Storage in
  Alcotest.(check bool) "int arrays exact" false
    (Valid.Oracle.data_close (Iarr [| 1; 2 |]) (Iarr [| 1; 3 |]));
  Alcotest.(check bool) "float arrays within ulp" true
    (Valid.Oracle.data_close (Farr [| 1.0 |]) (Farr [| Float.succ 1.0 |]));
  Alcotest.(check bool) "length mismatch" false
    (Valid.Oracle.data_close (Farr [| 1.0 |]) (Farr [| 1.0; 2.0 |]))

(* What a capture comparison reports, through Oracle.execute on program
   pairs that differ in one stored element, an array's length or an
   array's class: each divergence's location and both values, as the
   reports print them. *)
let test_capture_divergences () =
  let prog lines =
    String.concat ""
      (List.map (fun l -> "      " ^ l ^ "\n") (("PROGRAM CAP" :: lines) @ [ "END" ]))
  in
  let check label original transformed expected =
    let divs =
      Valid.Oracle.compare_outcomes Valid.Oracle.default_cmp
        (Valid.Oracle.execute (parse (prog original)))
        (Valid.Oracle.execute (parse (prog transformed)))
    in
    Alcotest.(check (list (triple string string string)))
      label expected
      (List.map (fun (d : Valid.Oracle.divergence) -> (d.at, d.expected, d.got)) divs)
  in
  (* 0.1 + 0.2 is one ULP above 0.3, inside the 2-ULP tolerance *)
  check "float: one beyond the ULP tolerance, one within"
    [ "REAL A(20)"; "A(17) = 0.3"; "A(18) = 2.0" ]
    [ "REAL A(20)"; "A(17) = 0.1 + 0.2"; "A(18) = 2.001" ]
    [ ("array A[17]", "2", "2.001") ];
  check "integer off by one"
    [ "INTEGER K(4)"; "K(3) = 7" ]
    [ "INTEGER K(4)"; "K(3) = 8" ]
    [ ("array K[2]", "7", "8") ];
  check "flipped logical"
    [ "LOGICAL L(3)"; "L(2) = .TRUE." ]
    [ "LOGICAL L(3)"; "L(2) = .FALSE." ]
    [ ("array L[1]", "T", "F") ];
  check "array of another length"
    [ "REAL C(10)"; "C(1) = 1.0" ]
    [ "REAL C(12)"; "C(1) = 1.0" ]
    [ ("array C", "10 elements", "12 elements") ];
  (* INTEGER 3 against REAL 3.0 compares equal numerically *)
  check "a name stored with another class"
    [ "INTEGER M(2)"; "M(1) = 3"; "M(2) = 2" ]
    [ "REAL M(2)"; "M(1) = 3"; "M(2) = 2.5" ]
    [ ("array M[1]", "2", "2.5") ];
  (* the main frame binds its COMMON members too *)
  check "COMMON member"
    [ "COMMON /B/ X(2)"; "X(2) = 1.0" ]
    [ "COMMON /B/ X(2)"; "X(2) = 1.5" ]
    [ ("array X[1]", "1", "1.5"); ("common B/X[1]", "1", "1.5") ];
  check "NaN against NaN"
    [ "REAL A(2)"; "A(1) = SQRT(-1.0)" ]
    [ "REAL A(2)"; "A(1) = SQRT(-1.0)" ]
    []

(* ------------------------------------------------------------------ *)
(* The differential oracle                                             *)

let sum_src = {|
      PROGRAM SUMS
      INTEGER I, K
      REAL S, A(50)
      K = 0
      S = 0.0
      DO I = 1, 50
        K = K + 2
        A(I) = I * 0.5
        S = S + A(I)
      END DO
      PRINT *, S, K
      END
|}

let test_oracle_equivalent () =
  let r =
    Valid.Oracle.differential ~seeds:[ 7 ] ~original:(parse sum_src)
      ~transformed:(parse sum_src) ()
  in
  Alcotest.(check bool) "identical programs equivalent" true
    (Valid.Oracle.equivalent r);
  (* zero-init + 1 seed, each serial + p in {1,2,4,8} *)
  Alcotest.(check int) "check count" 10 r.checks

let test_oracle_catches_difference () =
  let broken_src = {|
      PROGRAM SUMS
      INTEGER I, K
      REAL S, A(50)
      K = 0
      S = 0.0
      DO I = 1, 50
        K = K + 3
        A(I) = I * 0.5
        S = S + A(I)
      END DO
      PRINT *, S, K
      END
|}
  in
  let r =
    Valid.Oracle.differential ~original:(parse sum_src)
      ~transformed:(parse broken_src) ()
  in
  Alcotest.(check bool) "difference detected" false (Valid.Oracle.equivalent r)

(* ------------------------------------------------------------------ *)
(* Per-pass snapshot validation on real pipelines                      *)

let test_validated_compile_suite () =
  List.iter
    (fun name ->
      let code = Suite.Registry.find name in
      List.iter
        (fun config ->
          let _, report =
            Valid.Snapshot.validated_compile ~procs_list:[ 1; 2; 4; 8 ] config
              code.Suite.Code.source
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s validates" name config.Core.Config.name)
            true (Valid.Snapshot.ok report))
        [ Core.Config.polaris (); Core.Config.baseline () ])
    [ "TRFD"; "MDG"; "TFFT2"; "WAVE5" ]

let test_validated_compile_seeded () =
  (* no CALLs in this program, so name-keyed seeded stores are identical
     across the transformation *)
  let _, report =
    Valid.Snapshot.validated_compile ~seeds:[ 1; 42 ]
      ~procs_list:[ 2; 8 ] (Core.Config.polaris ()) sum_src
  in
  Alcotest.(check bool) "seeded validation passes" true
    (Valid.Snapshot.ok report)

(* ------------------------------------------------------------------ *)
(* Mutation smoke tests: a broken pass must be localized               *)

(* add 1 to the right-hand side of the first assignment of the main
   unit — a miscompile that preserves IR well-formedness *)
let break_first_assign (p : Program.t) =
  let u = Program.main p in
  let done_ = ref false in
  u.pu_body <-
    Stmt.rewrite
      (fun s ->
        match s.kind with
        | Ast.Assign (lhs, rhs) when not !done_ ->
          done_ := true;
          [ { s with kind = Ast.Assign (lhs, Ast.Binary (Ast.Add, rhs, Ast.Int_lit 1)) } ]
        | _ -> [ s ])
      u.pu_body;
  Alcotest.(check bool) "mutation applied" true !done_

let test_mutation_localized () =
  let original = parse sum_src in
  let report =
    Valid.Snapshot.validate_stages ~procs_list:[ 2 ] ~original
      [ ( "induction",
          fun p -> ignore (Passes.Induction.run ~generalized:true p) );
        ("evil", break_first_assign);
        ("deadcode", fun p -> ignore (Passes.Deadcode.run p)) ]
  in
  Alcotest.(check bool) "validation failed" false (Valid.Snapshot.ok report);
  Alcotest.(check (option string)) "localized to the broken pass"
    (Some "evil") report.failed_stage;
  (* the pass before the mutation must have validated cleanly *)
  match report.stages with
  | { stage = "induction"; status = Valid.Snapshot.Ok_validated _ } :: _ -> ()
  | _ -> Alcotest.fail "induction stage should validate before the mutation"

let test_inconsistency_localized () =
  let original = parse sum_src in
  let report =
    Valid.Snapshot.validate_stages ~procs_list:[ 2 ] ~original
      [ ("constprop", Passes.Constprop.run);
        ( "bad-goto",
          fun p ->
            let u = Program.main p in
            u.pu_body <- u.pu_body @ [ Stmt.mk (Ast.Goto 999) ] ) ]
  in
  Alcotest.(check (option string)) "localized to the malformed pass"
    (Some "bad-goto") report.failed_stage;
  match List.rev report.stages with
  | { stage = "bad-goto"; status = Valid.Snapshot.Inconsistent _ } :: _ -> ()
  | _ -> Alcotest.fail "expected an IR-consistency failure"

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)

let test_trace_recorder () =
  let trfd = (Suite.Registry.find "TRFD").source in
  let t, trace = Valid.Trace.record_compile (Core.Config.polaris ()) trfd in
  Alcotest.(check bool) "loops recorded" true
    (List.length trace.tr_loops = List.length t.loops);
  Alcotest.(check bool) "one record per pass + parse" true
    (List.length trace.tr_passes >= 6);
  Alcotest.(check bool) "induction rewrote statements" true
    (List.exists
       (fun (p : Valid.Trace.pass_record) ->
         p.pass = "induction" && p.rewritten > 0)
       trace.tr_passes);
  Alcotest.(check bool) "range tests recorded" true
    (trace.tr_dep.range_proved + trace.tr_dep.range_failed > 0);
  let json = Valid.Trace.to_json trace in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "json has dep counters" true
    (contains json "dep_tests")

(* ------------------------------------------------------------------ *)
(* Speculative failure path: checkpoint must restore exactly           *)

let spec_src ~collide = Printf.sprintf
  "      PROGRAM S\n\
   \      INTEGER N, K, COLL\n\
   \      PARAMETER (N = 64)\n\
   \      INTEGER IX(64), JX(64)\n\
   \      REAL D(128), SRC(128), T\n\
   \      COLL = %d\n\
   \      DO K = 1, N\n\
   \        IX(K) = 2 * K - MOD(K, 2)\n\
   \        JX(K) = IX(K)\n\
   \        SRC(K) = 0.5 * K\n\
   \      END DO\n\
   \      IF (COLL .EQ. 1) THEN\n\
   \        JX(7) = IX(6)\n\
   \      END IF\n\
   \      DO K = 1, N\n\
   \        T = D(JX(K)) + SRC(K)\n\
   \        D(IX(K)) = T * 0.5 + 1.0\n\
   \      END DO\n\
   \      PRINT *, D(1)\n\
   \      END\n"
  (if collide then 1 else 0)

let test_speculative_restore_exact () =
  let p = parse (spec_src ~collide:true) in
  ignore (Passes.Parallelize.run ~mode:Passes.Parallelize.Polaris p);
  let sid = ref (-1) in
  Stmt.iter
    (fun (s : Ast.stmt) ->
      match s.kind with
      | Ast.Do d when d.info.speculative -> sid := s.sid
      | _ -> ())
    (Program.main p).pu_body;
  Alcotest.(check bool) "speculative candidate flagged" true (!sid >= 0);
  let o = Fruntime.Speculative.run ~procs:8 ~loop_sid:!sid ~array:"D" p in
  Alcotest.(check bool) "PD test failed (collision)" true
    (o.verdict = Machine.Shadow.Not_parallel);
  match (o.checkpoint, o.tested_alloc) with
  | Some ckpt, Some alloc ->
    let post = Machine.Storage.snapshot alloc in
    Alcotest.(check bool) "loop modified the tested array" false
      (Valid.Oracle.data_close post ckpt);
    (* the failure path: restore the checkpoint, then the storage must
       equal the loop-entry state bit-for-bit (zero ULP tolerance) *)
    Machine.Storage.restore alloc ckpt;
    Alcotest.(check bool) "restored state equals checkpoint exactly" true
      (Valid.Oracle.data_close ~cmp:{ Valid.Oracle.ulp_tol = 0; rel_tol = 0.0 }
         (Machine.Storage.snapshot alloc) ckpt)
  | _ -> Alcotest.fail "checkpoint not captured at loop entry"

let tests =
  [ ("ulp distance", `Quick, test_ulp_diff);
    ("value comparator", `Quick, test_value_close);
    ("storage data comparator", `Quick, test_data_close);
    ("capture divergences pinned", `Quick, test_capture_divergences);
    ("oracle: identical programs", `Quick, test_oracle_equivalent);
    ("oracle: difference caught", `Quick, test_oracle_catches_difference);
    ("validated compile: suite codes", `Slow, test_validated_compile_suite);
    ("validated compile: seeded stores", `Quick, test_validated_compile_seeded);
    ("mutation smoke: broken pass localized", `Quick, test_mutation_localized);
    ("mutation smoke: IR inconsistency localized", `Quick, test_inconsistency_localized);
    ("flight recorder", `Quick, test_trace_recorder);
    ("speculative failure restores checkpoint", `Quick, test_speculative_restore_exact) ]
