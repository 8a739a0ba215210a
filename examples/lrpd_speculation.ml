(** Run-time parallelization (paper §3.5): a loop whose access pattern
    depends on input data is speculatively executed as a DOALL under the
    PD test; a conflicting input makes the test fail and the loop
    re-execute serially.

    Run with [dune exec examples/lrpd_speculation.exe]. *)

let source ~collide = Printf.sprintf
  "      PROGRAM NLFILT\n\
   \      INTEGER N, K, COLL\n\
   \      PARAMETER (N = 512)\n\
   \      INTEGER IX(512), JX(512)\n\
   \      REAL D(1024), S(1024), T\n\
   \      COLL = %d\n\
   \      DO K = 1, N\n\
   \        IX(K) = 2 * K - MOD(K, 2)\n\
   \        JX(K) = IX(K)\n\
   \        S(K) = 0.5 * K\n\
   \      END DO\n\
   \      IF (COLL .EQ. 1) THEN\n\
   \        JX(37) = IX(36)\n\
   \      END IF\n\
   \      DO K = 1, N\n\
   \        T = D(JX(K)) + S(K)\n\
   \        D(IX(K)) = T * 0.5 + 1.0\n\
   \      END DO\n\
   \      PRINT *, D(1)\n\
   \      END\n"
  (if collide then 1 else 0)

let speculate ~collide ~procs =
  let p = Frontend.Parser.parse_string (source ~collide) in
  ignore (Passes.Parallelize.run ~mode:Passes.Parallelize.Polaris p);
  (* the compiler cannot analyze D(JX(K)) at compile time and flags the
     loop as a speculative candidate *)
  let sid = ref (-1) in
  Fir.Stmt.iter
    (fun (s : Fir.Ast.stmt) ->
      match s.kind with
      | Fir.Ast.Do d when d.info.speculative -> sid := s.sid
      | _ -> ())
    (Fir.Program.main p).pu_body;
  assert (!sid >= 0);
  Fruntime.Speculative.run ~procs ~loop_sid:!sid ~array:"D" p

let () =
  Fmt.pr "the compiler flags the D loop as a speculative DOALL candidate@.";
  Fmt.pr "(subscripted subscripts through JX/IX, values unknown at compile time)@.@.";
  Fmt.pr "%6s | %18s | %18s@." "procs" "clean input" "conflicting input";
  Fmt.pr "%6s | %9s %8s | %9s %8s@." "" "verdict" "speedup" "verdict" "speedup";
  List.iter
    (fun procs ->
      let ok = speculate ~collide:false ~procs in
      let bad = speculate ~collide:true ~procs in
      let v o =
        match o.Fruntime.Speculative.verdict with
        | Machine.Shadow.Parallel -> "parallel"
        | Machine.Shadow.Parallel_privatized -> "par+priv"
        | Machine.Shadow.Not_parallel -> "FAILED"
      in
      Fmt.pr "%6d | %9s %7.2fx | %9s %7.2fx@." procs (v ok)
        (Fruntime.Speculative.speedup ok)
        (v bad)
        (Fruntime.Speculative.speedup bad))
    [ 2; 4; 8 ];
  let ok8 = speculate ~collide:false ~procs:8 in
  Fmt.pr
    "@.potential slowdown had the test failed (paper Fig. 6, bottom): %.3f@."
    (Fruntime.Speculative.potential_slowdown ok8);
  Fmt.pr "PD-test overhead is O(a/p + log p): %d accesses, analysis time %d@."
    ok8.accesses ok8.t_pd_analysis
