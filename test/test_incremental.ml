(* Incremental recompilation fuzzing: serve-style sessions over random
   multi-unit programs.

   Each session holds a three-unit document (the test_fuzz PROGRAM plus
   two generated SUBROUTINE units), cold-compiles it, then applies a
   random edit sequence — each step regenerates exactly one unit from a
   fresh seed — recompiling incrementally after every edit.  Every
   incremental compile must be byte-identical (annotated output,
   per-loop verdicts, incidents, dependence counters) to a from-scratch
   compile of the same source, and every post-edit recompile must
   actually reuse cached analyses.  The property is checked at the
   session's -j (100 qcheck seeds; the CI POLARIS_JOBS=4 rerun covers
   the parallel path) and a fixed battery pins -j 1 vs -j 4. *)

(* a self-contained subroutine unit; never called from the main program,
   so edits to it can only flow into the outcome through its own
   analyses and loop verdicts *)
let gen_subroutine (name : string) (seed : int) : string =
  let r = Util.Prng.create seed in
  let buf = Buffer.create 256 in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "      SUBROUTINE %s" name;
  line "      INTEGER J1, J2, Q";
  line "      REAL C(200), U, V";
  line "      U = 0.0";
  line "      V = 1.0";
  line "      Q = 0";
  line "      DO J1 = 1, %d" (Util.Prng.range r 5 20);
  line "        C(J1) = J1 * 0.25";
  line "      END DO";
  for _ = 1 to Util.Prng.range r 1 3 do
    line "      DO J1 = 1, %d" (Util.Prng.range r 3 12);
    (match Util.Prng.range r 0 4 with
    | 0 ->
      line "        C(J1 + %d) = C(J1) * 0.5 + %d.0" (Util.Prng.range r 0 50)
        (Util.Prng.range r 0 5)
    | 1 -> line "        U = U + C(J1) * 0.125"
    | 2 ->
      line "        DO J2 = 1, %d" (Util.Prng.range r 2 6);
      line "          C(J1 + 12 * J2) = C(J1 + 12 * J2) + 1.0";
      line "        END DO"
    | 3 ->
      line "        Q = Q + %d" (Util.Prng.range r 1 3);
      line "        C(Q + %d) = U + V" (Util.Prng.range r 10 60)
    | _ -> line "        V = V * 0.5");
    line "      END DO"
  done;
  line "      END";
  Buffer.contents buf

(* one serve session: cold compile, then [edits] single-unit edits, each
   followed by an incremental recompile checked against scratch *)
let check_session ?(edits = 3) (seed : int) : bool =
  let r = Util.Prng.create seed in
  let cfg = Core.Config.polaris () in
  let seeds = Array.init 3 (fun _ -> Util.Prng.range r 0 1_000_000) in
  let source () =
    Test_fuzz.gen_program (Util.Prng.create seeds.(0))
    ^ gen_subroutine "SUB1" seeds.(1)
    ^ gen_subroutine "SUB2" seeds.(2)
  in
  Util.Cachectl.clear_all ();
  let ok = ref true in
  let fail fmt =
    Fmt.kstr
      (fun s ->
        ok := false;
        Printf.eprintf "incremental fuzz seed %d: %s\n%!" seed s)
      fmt
  in
  let step ~require_reuse =
    let src = source () in
    let inc = Core.Incremental.compile cfg src in
    let scr = Core.Incremental.scratch cfg src in
    List.iter (fail "%s")
      (Core.Incremental.diverges ~incremental:inc.outcome ~scratch:scr.outcome);
    if require_reuse && inc.stats.st_hits = 0 then
      fail "no analysis reuse on a single-unit-edit recompile"
  in
  step ~require_reuse:false;
  for _ = 1 to edits do
    seeds.(Util.Prng.range r 0 2) <- Util.Prng.range r 0 1_000_000;
    (* the scratch compile of the previous step re-warmed the caches
       with this very session's entries, so the post-edit recompile
       must hit on the two unedited units *)
    step ~require_reuse:true
  done;
  !ok

let prop_incremental_identical =
  QCheck2.Test.make
    ~name:"incremental recompile is byte-identical to scratch (fuzz)"
    ~count:100
    QCheck2.Gen.(int_range 0 1_000_000)
    check_session

(* the same property pinned at -j 1 and -j 4 regardless of the session's
   POLARIS_JOBS, so the parallel path is always covered *)
let test_fixed_seeds_jobs () =
  List.iter
    (fun jobs ->
      Util.Pool.with_jobs jobs (fun () ->
          List.iter
            (fun seed ->
              Alcotest.(check bool)
                (Printf.sprintf "seed %d at -j %d" seed jobs)
                true (check_session seed))
            [ 3; 17; 1996; 424242 ]))
    [ 1; 4 ]

(* the canonical single-unit edit: a CONTINUE spliced in just before the
   final END line, so exactly one program unit reparses to different IR *)
let inject_continue (source : string) : string =
  let lines = String.split_on_char '\n' source in
  let last_end = ref (-1) in
  List.iteri (fun i l -> if String.trim l = "END" then last_end := i) lines;
  List.mapi (fun i l -> if i = !last_end then "      CONTINUE\n" ^ l else l) lines
  |> String.concat "\n"

(* one session per suite code: compile it, edit one unit, recompile.  The
   recompile must match a from-scratch compile, reuse at least 70 % of its
   analyses, and reuse more than the from-scratch compile does within
   itself (on the suite: 88-96 % against 59-92 %) *)
let test_suite_edits () =
  let cfg = Core.Config.polaris () in
  List.iter
    (fun (c : Suite.Code.t) ->
      Util.Cachectl.clear_all ();
      ignore (Core.Incremental.compile cfg c.source);
      let edited = inject_continue c.source in
      let inc = Core.Incremental.compile cfg edited in
      let scr = Core.Incremental.scratch cfg edited in
      List.iter
        (fun d -> Alcotest.failf "%s: %s" c.name d)
        (Core.Incremental.diverges ~incremental:inc.outcome ~scratch:scr.outcome);
      let reuse = inc.stats.st_reuse_rate in
      if reuse < 0.70 || reuse <= scr.stats.st_reuse_rate then
        Alcotest.failf "%s: edited recompile reuses %.1f %% (from scratch %.1f %%)"
          c.name (100.0 *. reuse) (100.0 *. scr.stats.st_reuse_rate))
    Suite.Registry.all

let tests =
  [ ("fixed incremental seeds at -j 1/4", `Slow, test_fixed_seeds_jobs);
    ("suite edits reuse and match scratch", `Quick, test_suite_edits) ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_incremental_identical ]
