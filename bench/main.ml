(** Experiment harness: regenerates every table and figure of the paper.

    Usage: [main.exe [table1|fig1|...|fig7|coverage|ablation]]
    With no argument every experiment runs in order.  EXPERIMENTS.md
    records paper-vs-measured for each.  Every result is a deterministic
    simulated-time measurement, pinned byte for byte by
    [test/golden/bench/]; wall-clock performance, the compiler's own
    included, is measured by [measure/].  Translation validation and the
    chaos sweep are [polaris validate --suite] and [polaris chaos]. *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let run_both ?(procs = 8) (source : string) =
  ( Core.Simulate.compile_and_run (Core.Config.polaris ~procs ()) source,
    Core.Simulate.compile_and_run (Core.Config.baseline ~procs ()) source )

let print_reports reports =
  List.iter
    (fun (_, rs) ->
      List.iter
        (fun (r : Passes.Parallelize.loop_report) ->
          Printf.printf "  DO %-4s %s%s -- %s\n" r.loop_index
            (if r.parallel then "PARALLEL" else "serial  ")
            (if r.speculative then " (speculative candidate)" else "")
            r.reason)
        rs)
    reports

(* ------------------------------------------------------------------ *)
(* Table 1: benchmark codes studied                                    *)

let table1 () =
  section "Table 1: benchmark codes studied (paper vs. this reproduction)";
  Printf.printf "%-8s %-8s | %6s %6s | %6s %10s\n" "Program" "Origin"
    "paper" "paper" "synth" "simulated";
  Printf.printf "%-8s %-8s | %6s %6s | %6s %10s\n" "" "" "lines" "sec"
    "lines" "serial time";
  Printf.printf "%s\n" (String.make 62 '-');
  List.iter
    (fun (c : Suite.Code.t) ->
      let p = Frontend.Parser.parse_string c.source in
      let r = Machine.Interp.run p in
      Printf.printf "%-8s %-8s | %6d %6d | %6d %10d\n" c.name
        (Suite.Code.origin_to_string c.origin)
        c.paper_lines c.paper_serial_s
        (Suite.Registry.synthetic_lines c)
        r.time)
    Suite.Registry.all

(* ------------------------------------------------------------------ *)
(* Fig. 1: substitution of cascaded inductions                         *)

let fig1_source = {|
      PROGRAM FIG1
      INTEGER N, I, J, K1, K2
      PARAMETER (N = 8)
      REAL B(1000)
      K1 = 0
      K2 = 0
      DO I = 1, N
        DO J = 1, I
          K1 = K1 + 1
          B(K1) = B(K1) + 1.0
          K2 = K2 + K1
        END DO
        B(K2) = B(K2) - 1.0
      END DO
      PRINT *, K1, K2
      END
|}

let fig1 () =
  section "Fig. 1: substitution of cascaded inductions (K1, K2)";
  let p = Frontend.Parser.parse_string fig1_source in
  let before = Machine.Interp.run_full p in
  let subs = Passes.Induction.run p in
  Printf.printf "substituted: %s\n"
    (String.concat ", " (List.map (fun (v, l) -> v ^ " in loop " ^ l) subs));
  print_string (Frontend.Unparse.program_to_string p);
  let after = Machine.Interp.run_full p in
  Printf.printf "semantics preserved: outputs %b, memory %b\n"
    (before.cap_result.output = after.cap_result.output)
    (before.cap_arrays = after.cap_arrays);
  print_reports (Passes.Parallelize.run ~mode:Passes.Parallelize.Polaris p)

(* ------------------------------------------------------------------ *)
(* Fig. 2: TRFD OLDA induction substitution + range test               *)

let fig2_source = {|
      PROGRAM OLDA
      INTEGER M, N, I, J, K, X, X0
      PARAMETER (M = 12, N = 10)
      REAL A(1000)
      X0 = 0
      DO I = 0, M - 1
        X = X0
        DO J = 0, N - 1
          DO K = 0, J - 1
            X = X + 1
            A(X) = I * 0.5 + J * 0.25 + K * 0.125
          END DO
        END DO
        X0 = X0 + (N**2 + N) / 2
      END DO
      PRINT *, A(1), A(550)
      END
|}

let fig2 () =
  section "Fig. 2: induction substitution in TRFD (OLDA/100)";
  let p = Frontend.Parser.parse_string fig2_source in
  let before = Machine.Interp.run_full p in
  ignore (Passes.Induction.run p);
  Passes.Constprop.run p;
  print_string (Frontend.Unparse.program_to_string p);
  let after = Machine.Interp.run_full p in
  Printf.printf "semantics preserved: outputs %b, memory %b\n"
    (before.cap_result.output = after.cap_result.output)
    (before.cap_arrays = after.cap_arrays);
  Printf.printf "paper: all three loops parallel after substitution; measured:\n";
  print_reports (Passes.Parallelize.run ~mode:Passes.Parallelize.Polaris p);
  Printf.printf "baseline pipeline (classic induction + gcd/banerjee/SIV):\n";
  let t2 = Core.Pipeline.compile (Core.Config.baseline ()) fig2_source in
  print_reports
    (List.map
       (fun (l : Core.Pipeline.loop_result) -> (l.unit_name, [ l.report ]))
       t2.loops)

(* ------------------------------------------------------------------ *)
(* Fig. 3: OCEAN FTRVMT/109 range test with loop permutation           *)

let fig3_source = {|
      PROGRAM FTRVMT
      INTEGER X, K, J, I
      INTEGER Z(0:15)
      REAL A(100000)
      X = 4
      DO K = 0, X - 1
        Z(K) = 6 + K
      END DO
      DO K = 0, X - 1
        DO J = 0, Z(K)
          DO I = 0, 128
            A(258*X*J + 129*K + I + 1) = A(258*X*J + 129*K + I + 1) * 0.5
            A(258*X*J + 129*K + I + 1 + 129*X) = A(258*X*J + 129*K + I + 1) + 1.0
          END DO
        END DO
      END DO
      PRINT *, A(1), A(129)
      END
|}

let fig3 () =
  section "Fig. 3: range test with loop permutation on FTRVMT/109";
  let p = Frontend.Parser.parse_string fig3_source in
  Printf.printf "paper: all three loops parallel, outermost needs permutation;\n";
  Printf.printf "measured (range test, symbolic X):\n";
  print_reports (Passes.Parallelize.run ~mode:Passes.Parallelize.Polaris p);
  Printf.printf "baseline pipeline on the same nest:\n";
  let t2 = Core.Pipeline.compile (Core.Config.baseline ()) fig3_source in
  print_reports
    (List.map
       (fun (l : Core.Pipeline.loop_result) -> (l.unit_name, [ l.report ]))
       t2.loops)

(* ------------------------------------------------------------------ *)
(* Fig. 4: array privatization via demand-driven proof (MP >= M*P)     *)

let fig4_source = {|
      PROGRAM FIG4
      INTEGER M, P, MP, I, J, K
      REAL A(1000), B(100, 1000), C(100, 1000)
      M = 10
      P = 25
      MP = M * P
      DO I = 1, 100
        DO J = 1, MP
          A(J) = B(I, J) + 1.0
        END DO
        DO K = 1, M * P
          C(I, K) = A(K) * 2.0
        END DO
      END DO
      PRINT *, C(50, 125)
      END
|}

let fig4 () =
  section "Fig. 4: privatization of A needs MP >= M*P (GSA demand proof)";
  let p = Frontend.Parser.parse_string fig4_source in
  let reports = Passes.Parallelize.run ~mode:Passes.Parallelize.Polaris p in
  Printf.printf "paper: loop I parallel with A privatized; measured:\n";
  print_reports reports

(* ------------------------------------------------------------------ *)
(* Fig. 5: BDNA privatization with monotonic index arrays              *)

let fig5_source = {|
      PROGRAM FIG5
      INTEGER N, I, J, K, L, P, M, IND(1000)
      PARAMETER (N = 100)
      REAL A(1000), X(500, 500), Y(500, 500), Z, W, R, RCUTS
      W = 0.5
      Z = 1.5
      RCUTS = 50.0
      DO I = 2, N
        DO J = 1, I - 1
          IND(J) = 0
          A(J) = X(I, J) - Y(I, J)
          R = A(J) + W
          IF (R .LT. RCUTS) IND(J) = 1
        END DO
        P = 0
        DO K = 1, I - 1
          IF (IND(K) .NE. 0) THEN
            P = P + 1
            IND(P) = K
          END IF
        END DO
        DO L = 1, P
          M = IND(L)
          X(I, L) = A(M) + Z
        END DO
      END DO
      PRINT *, X(100, 1)
      END
|}

let fig5 () =
  section "Fig. 5: BDNA loop - privatization of A and IND";
  let p = Frontend.Parser.parse_string fig5_source in
  let reports = Passes.Parallelize.run ~mode:Passes.Parallelize.Polaris p in
  Printf.printf
    "paper: loop I parallel with R, P, M, IND, A privatized; K is a\n\
     sequential compaction scan; measured:\n";
  print_reports reports

(* ------------------------------------------------------------------ *)
(* Fig. 6: PD test - speedup and potential slowdown vs processors      *)

let nlfilt_source ~collide = Printf.sprintf {|
      PROGRAM NLFILT
      INTEGER N, K, COLL
      PARAMETER (N = 2048)
      INTEGER IX(2048), JX(2048)
      REAL D(4096), S(4096), T
      COLL = %d
      DO K = 1, N
        IX(K) = 2 * K - MOD(K, 2)
        JX(K) = IX(K)
        S(K) = 0.5 * K
      END DO
      IF (COLL .EQ. 1) THEN
        JX(37) = IX(36)
      END IF
      DO K = 1, N
        T = D(JX(K)) + S(K)
        D(IX(K)) = T * 0.5 + 1.0
      END DO
      PRINT *, D(1)
      END
|} (if collide then 1 else 0)

let find_speculative_loop p =
  let u = Fir.Program.main p in
  let nests = Analysis.Loops.nests_of_unit u in
  let target =
    List.find
      (fun n ->
        let l = Analysis.Loops.innermost n in
        l.Analysis.Loops.dloop.info.speculative)
      nests
  in
  (Analysis.Loops.innermost target).Analysis.Loops.stmt.sid

let fig6 () =
  section "Fig. 6: PD test on the NLFILT-like loop (TRACK NLFILT/300)";
  Printf.printf
    "loop flagged as a speculative DOALL candidate (subscripted\n\
     subscripts); 10 invocations, 9 parallel and 1 not, as in the paper\n\n";
  Printf.printf "%5s | %9s %9s | %9s %10s | %9s\n" "procs" "pass spd"
    "fail spd" "90%-mix" "paper mix" "slowdown";
  Printf.printf "%s\n" (String.make 66 '-');
  List.iter
    (fun procs ->
      let run ~collide =
        let p = Frontend.Parser.parse_string (nlfilt_source ~collide) in
        let _ = Passes.Parallelize.run ~mode:Passes.Parallelize.Polaris p in
        let sid = find_speculative_loop p in
        Fruntime.Speculative.run ~procs ~loop_sid:sid ~array:"D" p
      in
      let ok = run ~collide:false in
      let bad = run ~collide:true in
      assert (ok.verdict <> Machine.Shadow.Not_parallel);
      assert (bad.verdict = Machine.Shadow.Not_parallel);
      (* the paper's experiment: 90% of invocations parallel *)
      let mix_seq = 10 * ok.t_seq in
      let mix_par = (9 * ok.t_total) + bad.t_total in
      let mix_speedup = float_of_int mix_seq /. float_of_int mix_par in
      (* bar heights read off the paper's figure, approximate *)
      let paper_mix =
        match procs with 1 -> 1.0 | 2 -> 1.8 | 4 -> 3.2 | 6 -> 4.2 | _ -> 5.0
      in
      Printf.printf "%5d | %9.2f %9.2f | %9.2f %10.1f | %9.3f\n" procs
        (Fruntime.Speculative.speedup ok)
        (Fruntime.Speculative.speedup bad)
        mix_speedup paper_mix
        (Fruntime.Speculative.potential_slowdown ok))
    [ 1; 2; 4; 6; 8 ]

(* ------------------------------------------------------------------ *)
(* Fig. 7: speedups, Polaris vs the baseline (PFA stand-in)            *)

let fig7 () =
  section "Fig. 7: speedup on 8 processors, Polaris vs baseline (PFA)";
  Printf.printf "%-8s | %7s %7s | %7s %7s | %s\n" "Program" "Polaris"
    "basel." "paper-P" "paper-B" "winner (paper)";
  Printf.printf "%s\n" (String.make 66 '-');
  let wins = ref 0 and losses = ref 0 in
  List.iter
    (fun (c : Suite.Code.t) ->
      let (tp, rp), (_, rb) = run_both c.source in
      ignore tp;
      let winner =
        if rp.speedup > rb.speedup *. 1.02 then "Polaris"
        else if rb.speedup > rp.speedup *. 1.02 then "PFA"
        else "tie"
      in
      let paper_winner =
        if c.paper_polaris_speedup > c.paper_pfa_speedup *. 1.02 then "Polaris"
        else if c.paper_pfa_speedup > c.paper_polaris_speedup *. 1.02 then "PFA"
        else "tie"
      in
      if winner = "PFA" then incr losses
      else if winner = "Polaris" then incr wins;
      Printf.printf "%-8s | %7.2f %7.2f | %7.1f %7.1f | %s (%s)\n" c.name
        rp.speedup rb.speedup c.paper_polaris_speedup c.paper_pfa_speedup
        winner paper_winner)
    Suite.Registry.all;
  Printf.printf
    "\nPolaris ahead on %d codes, baseline ahead on %d (paper: PFA ahead on 2)\n"
    !wins !losses

(* ------------------------------------------------------------------ *)
(* Coverage: fraction of loops proven parallel per code                *)

let coverage () =
  section "coverage: loops proven parallel per code (paper: \"successful in half of the codes\")";
  Printf.printf "%-8s | %18s | %18s | %s\n" "Program" "polaris par/total"
    "baseline par/total" "polaris speculative";
  Printf.printf "%s\n" (String.make 72 '-');
  let successes = ref 0 in
  List.iter
    (fun (c : Suite.Code.t) ->
      let t = Core.Pipeline.compile (Core.Config.polaris ()) c.source in
      let b = Core.Pipeline.compile (Core.Config.baseline ()) c.source in
      let par x = List.length (Core.Pipeline.parallel_loops x) in
      let tot x = List.length x.Core.Pipeline.loops in
      let spec = List.length (Core.Pipeline.speculative_candidates t) in
      (* the paper counted a code a success when its speedup was
         substantial; use >= 3x on 8 processors as the bar *)
      let _, r = Core.Simulate.compile_and_run (Core.Config.polaris ()) c.source in
      if r.speedup >= 3.0 then incr successes;
      Printf.printf "%-8s | %10d/%-7d | %10d/%-7d | %d\n" c.name (par t)
        (tot t) (par b) (tot b) spec)
    Suite.Registry.all;
  Printf.printf
    "\ncodes with >= 3x simulated speedup under Polaris: %d of 16 (paper: \"half\")\n"
    !successes

(* ------------------------------------------------------------------ *)
(* Ablation: Polaris minus one technique                               *)

let ablation () =
  section "ablation: Polaris minus one technique (speedup on 8 procs)";
  let configs =
    [ Core.Config.polaris ();
      Core.Config.without_inline ();
      Core.Config.without_generalized_induction ();
      Core.Config.baseline () ]
  in
  Printf.printf "%-8s |" "Program";
  List.iter (fun (c : Core.Config.t) -> Printf.printf " %-18s" c.name) configs;
  Printf.printf "\n%s\n" (String.make 90 '-');
  List.iter
    (fun name ->
      let c = Suite.Registry.find name in
      Printf.printf "%-8s |" c.name;
      List.iter
        (fun cfg ->
          let _, r = Core.Simulate.compile_and_run cfg c.source in
          Printf.printf " %-18.2f" r.speedup)
        configs;
      Printf.printf "\n")
    [ "TRFD"; "OCEAN"; "ARC2D"; "TFFT2"; "MDG" ]

let experiments =
  [ ("table1", table1); ("fig1", fig1); ("fig2", fig2); ("fig3", fig3);
    ("fig4", fig4); ("fig5", fig5); ("fig6", fig6); ("fig7", fig7);
    ("coverage", coverage); ("ablation", ablation) ]

let () =
  match Sys.argv with
  | [| _ |] -> List.iter (fun (_, f) -> f ()) experiments
  | [| _; name |] when List.mem_assoc name experiments ->
    (List.assoc name experiments) ()
  | _ ->
    Printf.eprintf "usage: %s [experiment]; available: %s\n" Sys.argv.(0)
      (String.concat " " (List.map fst experiments));
    exit 1
