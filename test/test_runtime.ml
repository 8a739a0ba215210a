(* Tests for the run-time parallelization framework: shadow marking, PD
   verdicts, speculative execution, cost model. *)

open Fruntime

(* feed a trace: iterations are lists of (kind, index) *)
let run_trace size iters =
  let sh = Machine.Shadow.create size in
  List.iter
    (fun accesses ->
      Machine.Shadow.begin_iteration sh;
      List.iter
        (fun (k, i) -> match k with `R -> Machine.Shadow.read sh i | `W -> Machine.Shadow.write sh i)
        accesses)
    iters;
  sh

let test_pd_fully_parallel () =
  (* each iteration writes its own element *)
  let sh = run_trace 8 [ [ (`W, 0) ]; [ (`W, 1) ]; [ (`W, 2) ] ] in
  Alcotest.(check bool) "parallel" true (Machine.Shadow.verdict sh = Machine.Shadow.Parallel)

let test_pd_flow_dependence () =
  (* iteration 1 writes 3; iteration 2 reads 3 without writing it *)
  let sh = run_trace 8 [ [ (`W, 3) ]; [ (`R, 3) ] ] in
  Alcotest.(check bool) "flow detected" true (Machine.Shadow.verdict sh = Machine.Shadow.Not_parallel)

let test_pd_output_dependence_privatizable () =
  (* two iterations write the same element, each writes before any read *)
  let sh = run_trace 8 [ [ (`W, 3) ]; [ (`W, 3); (`R, 3) ] ] in
  Alcotest.(check bool) "privatizable" true
    (Machine.Shadow.verdict sh = Machine.Shadow.Parallel_privatized)

let test_pd_read_before_write_not_privatizable () =
  (* both iterations read 3 before writing it: privatization invalid,
     and there are output dependences *)
  let sh = run_trace 8 [ [ (`R, 3); (`W, 3) ]; [ (`R, 3); (`W, 3) ] ] in
  Alcotest.(check bool) "not parallel" true (Machine.Shadow.verdict sh = Machine.Shadow.Not_parallel)

let test_pd_read_then_write_same_iter_ok () =
  (* a single iteration reading its own element before writing it is
     harmless when no other iteration touches it *)
  let sh = run_trace 8 [ [ (`R, 1); (`W, 1) ]; [ (`W, 2) ] ] in
  Alcotest.(check bool) "parallel as-is" true (Machine.Shadow.verdict sh = Machine.Shadow.Parallel)

let test_pd_read_only () =
  let sh = run_trace 8 [ [ (`R, 0) ]; [ (`R, 0) ] ] in
  Alcotest.(check bool) "reads only" true (Machine.Shadow.verdict sh = Machine.Shadow.Parallel)

let test_pd_analysis_counts () =
  let sh = run_trace 8 [ [ (`W, 0); (`W, 0) ]; [ (`W, 1) ]; [ (`W, 0) ] ] in
  let a = Machine.Shadow.analyze sh in
  (* wa counts first-per-iteration writes: 0,1,0 -> 3; marks: {0,1} -> 2 *)
  Alcotest.(check int) "total writes" 3 a.total_writes;
  Alcotest.(check int) "marks" 2 a.marks;
  Alcotest.(check bool) "output deps" true a.output_deps

(* ----- cost model ----- *)

let test_cost_model_shape () =
  let cm = Pd_test.default_cost in
  (* analysis time is O(size/p + log p): more procs helps up to log term *)
  let t1 = Pd_test.analysis_time cm ~size:4096 ~p:1 in
  let t8 = Pd_test.analysis_time cm ~size:4096 ~p:8 in
  Alcotest.(check bool) "p=8 faster" true (t8 < t1);
  Alcotest.(check bool) "log term present" true
    (Pd_test.analysis_time cm ~size:0 ~p:8 > Pd_test.analysis_time cm ~size:0 ~p:1);
  Alcotest.(check bool) "marking scales" true
    (Pd_test.marking_time cm ~accesses:1000 ~p:8 < Pd_test.marking_time cm ~accesses:1000 ~p:1)

(* ----- speculative execution on the interpreter ----- *)

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

let spec_run ~collide ~procs =
  let p = Frontend.Parser.parse_string (spec_src ~collide) in
  ignore (Passes.Parallelize.run ~mode:Passes.Parallelize.Polaris p);
  let u = Fir.Program.main p in
  let sid = ref (-1) in
  Fir.Stmt.iter
    (fun (s : Fir.Ast.stmt) ->
      match s.kind with
      | Fir.Ast.Do d when d.info.speculative -> sid := s.sid
      | _ -> ())
    u.pu_body;
  Alcotest.(check bool) "speculative candidate flagged" true (!sid >= 0);
  Speculative.run ~procs ~loop_sid:!sid ~array:"D" p

let test_speculative_pass () =
  let o = spec_run ~collide:false ~procs:8 in
  Alcotest.(check bool) "verdict parallel-ish" true (o.verdict <> Machine.Shadow.Not_parallel);
  Alcotest.(check int) "64 iterations seen" 64 o.iterations;
  Alcotest.(check bool) "speedup over serial" true (Speculative.speedup o > 1.0)

let test_speculative_fail () =
  let o = spec_run ~collide:true ~procs:8 in
  Alcotest.(check bool) "collision detected" true (o.verdict = Machine.Shadow.Not_parallel);
  (* failed speculation costs more than sequential execution *)
  Alcotest.(check bool) "t_total > t_seq" true (o.t_total > o.t_seq);
  Alcotest.(check bool) "speedup < 1" true (Speculative.speedup o < 1.0)

let test_speculative_slowdown_bounded () =
  (* potential slowdown shrinks with more processors (paper Fig. 6) *)
  let s2 = Speculative.potential_slowdown (spec_run ~collide:false ~procs:2) in
  let s8 = Speculative.potential_slowdown (spec_run ~collide:false ~procs:8) in
  Alcotest.(check bool) "slowdown decreases with p" true (s8 < s2);
  Alcotest.(check bool) "slowdown bounded" true (s8 < 2.5)

let test_speculative_detects_exact_dependence () =
  (* brute-force cross-check: with the collision, iterations 6 and 7
     touch the same element; the verdict must agree with a manual scan *)
  let o_ok = spec_run ~collide:false ~procs:4 in
  let o_bad = spec_run ~collide:true ~procs:4 in
  Alcotest.(check bool) "accesses counted" true (o_ok.accesses = o_bad.accesses);
  Alcotest.(check bool) "verdicts differ" true (o_ok.verdict <> o_bad.verdict)

let tests =
  [ ("PD: fully parallel", `Quick, test_pd_fully_parallel);
    ("PD: flow dependence", `Quick, test_pd_flow_dependence);
    ("PD: output deps privatizable", `Quick, test_pd_output_dependence_privatizable);
    ("PD: read-before-write fails privatization", `Quick, test_pd_read_before_write_not_privatizable);
    ("PD: same-iteration read/write ok", `Quick, test_pd_read_then_write_same_iter_ok);
    ("PD: read only", `Quick, test_pd_read_only);
    ("PD: analysis counters", `Quick, test_pd_analysis_counts);
    ("PD cost model shape", `Quick, test_cost_model_shape);
    ("speculative: passing run", `Quick, test_speculative_pass);
    ("speculative: failing run", `Quick, test_speculative_fail);
    ("speculative: slowdown bounded", `Quick, test_speculative_slowdown_bounded);
    ("speculative: verdict matches data", `Quick, test_speculative_detects_exact_dependence) ]
