(* Tests for the real parallel executor (Machine.Parexec, whose LRPD
   regions mark Machine.Shadow arrays): serial interpretation is the
   semantic oracle at every machine size, the forced-failure LRPD path
   must genuinely checkpoint/restore, and reduction merges must be
   deterministic run-to-run. *)

let compile_polaris src =
  let t = Core.Pipeline.compile (Core.Config.polaris ()) src in
  t.Core.Pipeline.program

(* exact bit-for-bit comparison of storage snapshots (the ULP-tolerant
   Oracle.data_close is too lenient for the checkpoint round-trip) *)
let data_bits_equal (a : Machine.Storage.data) (b : Machine.Storage.data) =
  match (a, b) with
  | Machine.Storage.Iarr x, Machine.Storage.Iarr y -> x = y
  | Machine.Storage.Barr x, Machine.Storage.Barr y -> x = y
  | Machine.Storage.Farr x, Machine.Storage.Farr y ->
    Array.length x = Array.length y
    && (let ok = ref true in
        Array.iteri
          (fun i v ->
            if Int64.bits_of_float v <> Int64.bits_of_float y.(i) then
              ok := false)
          x;
        !ok)
  | _ -> false

let check_identity ?(cmp = Valid.Oracle.real_cmp) name reference run =
  let divs = Valid.Oracle.compare_outcomes cmp reference run in
  Alcotest.(check int)
    (Fmt.str "%s: no divergences (%a)" name
       (Fmt.list ~sep:(Fmt.any "; ") Valid.Oracle.pp_divergence)
       (List.filteri (fun i _ -> i < 3) divs))
    0 (List.length divs)

(* ------------------------------------------------------------------ *)
(* Direct DOALL execution: privatized temp, lastprivate copy-out       *)

let vec_src =
  "      PROGRAM VEC\n\
   \      INTEGER I, N\n\
   \      PARAMETER (N = 200)\n\
   \      REAL A(200), B(200), T\n\
   \      DO I = 1, N\n\
   \        A(I) = I * 1.5\n\
   \        B(I) = 0.0\n\
   \      END DO\n\
   \      DO I = 1, N\n\
   \        T = A(I) * 2.0\n\
   \        B(I) = T + 1.0\n\
   \      END DO\n\
   \      PRINT *, B(1), B(200), T\n\
   \      END\n"

let test_doall_executes_for_real () =
  let p = compile_polaris vec_src in
  let reference = Valid.Oracle.execute p in
  List.iter
    (fun procs ->
      let run, stats = Valid.Oracle.execute_real ~procs p in
      check_identity (Fmt.str "vec p=%d" procs) reference run;
      if procs > 1 then begin
        Alcotest.(check bool)
          (Fmt.str "p=%d: regions actually forked" procs)
          true (stats.Machine.Parexec.regions >= 1);
        Alcotest.(check bool)
          (Fmt.str "p=%d: iterations ran on domains" procs)
          true
          (stats.Machine.Parexec.par_iters >= 200)
      end)
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Reductions: correct vs serial, deterministic run-to-run             *)

let red_src =
  "      PROGRAM RED\n\
   \      INTEGER I, N, KS\n\
   \      PARAMETER (N = 1000)\n\
   \      REAL A(1000), S, PMAX\n\
   \      DO I = 1, N\n\
   \        A(I) = MOD(I * 7, 13) * 0.1 + 0.01\n\
   \      END DO\n\
   \      S = 0.0\n\
   \      PMAX = 0.0\n\
   \      KS = 0\n\
   \      DO I = 1, N\n\
   \        S = S + A(I) * 1.1\n\
   \        PMAX = MAX(PMAX, A(I))\n\
   \        KS = KS + MOD(I, 3)\n\
   \      END DO\n\
   \      PRINT *, S, PMAX, KS\n\
   \      END\n"

let test_reductions_match_serial () =
  let p = compile_polaris red_src in
  let reference = Valid.Oracle.execute p in
  List.iter
    (fun procs ->
      let run, _ = Valid.Oracle.execute_real ~procs p in
      check_identity (Fmt.str "red p=%d" procs) reference run)
    [ 2; 4; 8 ]

let test_reduction_merge_deterministic () =
  let p = compile_polaris red_src in
  let first, stats = Valid.Oracle.execute_real ~procs:4 p in
  Alcotest.(check bool) "at least one real region" true
    (stats.Machine.Parexec.regions >= 1);
  for i = 1 to 3 do
    let again, _ = Valid.Oracle.execute_real ~procs:4 p in
    (* bit-for-bit: the domain-order merge leaves no room for run-to-run
       float wobble, whatever the domains' interleaving was *)
    check_identity ~cmp:{ Valid.Oracle.ulp_tol = 0; rel_tol = 0.0 }
      (Fmt.str "rerun %d identical" i)
      first again
  done

(* ------------------------------------------------------------------ *)
(* LRPD speculation: success commits, failure restores bit-for-bit     *)

let spec_program ~collide =
  let p = Frontend.Parser.parse_string (Test_runtime.spec_src ~collide) in
  ignore (Passes.Parallelize.run ~mode:Passes.Parallelize.Polaris p);
  p

let test_speculation_success_commits () =
  let p = spec_program ~collide:false in
  let reference = Valid.Oracle.execute p in
  let run, stats = Valid.Oracle.execute_real ~procs:4 p in
  check_identity "spec success" reference run;
  Alcotest.(check bool) "speculation attempted" true
    (stats.Machine.Parexec.spec_attempts >= 1);
  Alcotest.(check bool) "speculation succeeded" true
    (stats.Machine.Parexec.spec_success >= 1);
  Alcotest.(check int) "no failures" 0 stats.Machine.Parexec.spec_failures;
  match
    List.find_opt
      (fun (e : Machine.Parexec.spec_event) ->
        e.se_verdict = Machine.Shadow.Parallel)
      stats.Machine.Parexec.events
  with
  | None -> Alcotest.fail "no successful speculative event recorded"
  | Some e ->
    Alcotest.(check (list string)) "tested array" [ "D" ] e.se_arrays;
    Alcotest.(check int) "all 64 iterations speculated" 64 e.se_trips;
    Alcotest.(check bool) "no restore on success" true
      (e.se_after_restore = [])

let test_speculation_failure_restores_bitwise () =
  let p = spec_program ~collide:true in
  let reference = Valid.Oracle.execute p in
  let run, stats = Valid.Oracle.execute_real ~procs:4 p in
  (* semantics: the rollback + serial re-run must be indistinguishable
     from never having speculated *)
  check_identity "spec failure" reference run;
  Alcotest.(check bool) "speculation failed" true
    (stats.Machine.Parexec.spec_failures >= 1);
  Alcotest.(check int) "nothing committed speculatively" 0
    stats.Machine.Parexec.spec_success;
  match
    List.find_opt
      (fun (e : Machine.Parexec.spec_event) ->
        e.se_verdict <> Machine.Shadow.Parallel)
      stats.Machine.Parexec.events
  with
  | None -> Alcotest.fail "no failing speculative event recorded"
  | Some e ->
    Alcotest.(check bool) "flow dependence detected" true
      (e.se_verdict = Machine.Shadow.Not_parallel);
    Alcotest.(check bool) "checkpointed the tested array" true
      (List.mem_assoc "D" e.se_checkpoints);
    (* the load-bearing assertion: Storage.restore put back the exact
       bytes Storage.snapshot captured at region entry *)
    List.iter
      (fun (name, snap) ->
        match List.assoc_opt name e.se_after_restore with
        | None -> Alcotest.fail (name ^ ": no post-restore snapshot")
        | Some after ->
          Alcotest.(check bool)
            (name ^ ": checkpoint/restore round-trips bit-for-bit") true
            (data_bits_equal snap after))
      e.se_checkpoints

(* ------------------------------------------------------------------ *)
(* Fuzz: 100 seeds, parallel vs serial identity at p in {1,2,4,8}      *)

let fuzz_seeds = List.init 100 (fun i -> (i * 7919) + i)

(* each [(label, source)], compiled by Polaris, must execute at every
   processor count in [procs] exactly as the serial interpreter does *)
let check_matches_serial ~procs sources =
  let regions = ref 0 in
  List.iter
    (fun (label, src) ->
      let p = compile_polaris src in
      let reference = Valid.Oracle.execute p in
      List.iter
        (fun procs ->
          let run, stats = Valid.Oracle.execute_real ~procs p in
          regions := !regions + stats.Machine.Parexec.regions;
          check_identity (Fmt.str "%s p=%d" label procs) reference run)
        procs)
    sources;
  (* guard against the hook silently never firing: across the sources at
     least some loops must have actually forked *)
  Alcotest.(check bool) "some regions executed on domains" true (!regions > 0)

let test_fuzz_parallel_vs_serial () =
  check_matches_serial ~procs:[ 1; 2; 4; 8 ]
    (List.map
       (fun seed ->
         (Fmt.str "seed %d" seed, Test_fuzz.gen_program (Util.Prng.create seed)))
       fuzz_seeds)

(* every suite code at the processor counts a 2- and a 4-core host run *)
let test_suite_matches_serial () =
  check_matches_serial ~procs:[ 2; 4 ]
    (List.map (fun (c : Suite.Code.t) -> (c.name, c.source)) Suite.Registry.all)

(* the differential_real entry point used by `polaris validate` *)
let test_differential_real_report () =
  let p = compile_polaris vec_src in
  let report =
    Valid.Oracle.differential_real ~procs_list:[ 1; 2; 4 ] ~seeds:[ 42 ] p ()
  in
  Alcotest.(check bool) "equivalent" true (Valid.Oracle.equivalent report);
  Alcotest.(check int) "checks = stores x procs" 6 report.Valid.Oracle.checks

(* ------------------------------------------------------------------ *)
(* One domain substrate: regions are Util.Pool batches                 *)

(* every forked region, DOALL or speculative, is exactly one fanned-out
   pool batch (a failed speculation forked too, then re-ran serially);
   p = 1 never reaches the pool *)
let test_one_batch_per_region () =
  let forked = ref 0 in
  List.iter
    (fun (c : Suite.Code.t) ->
      let p = compile_polaris c.source in
      List.iter
        (fun procs ->
          let base = Util.Pool.counters () in
          let _, (s : Machine.Parexec.stats) = Valid.Oracle.execute_real ~procs p in
          let d = Util.Pool.counters_delta ~base (Util.Pool.counters ()) in
          let regions = if procs = 1 then 0 else s.regions + s.spec_failures in
          forked := !forked + regions;
          Alcotest.(check int)
            (Fmt.str "%s p=%d: one fanned batch per forked region" c.name procs)
            regions d.c_batches;
          Alcotest.(check int) (Fmt.str "%s p=%d: no inline batch" c.name procs) 0
            d.c_inline)
        [ 1; 2 ])
    Suite.Registry.all;
  Alcotest.(check bool) "regions forked" true (!forked > 0)

(* compile batches at -j 4 and runtime regions at p = 2 and p = 4 take
   turns on the one pool: neither may disturb the other *)
let test_compile_and_regions_interleave () =
  List.iter
    (fun (c : Suite.Code.t) ->
      let compile () =
        Core.Pipeline.compile (Core.Config.polaris ()) c.source
      in
      let serial_source =
        Util.Pool.with_jobs 1 (fun () -> Core.Pipeline.output_source (compile ()))
      in
      let compile_and_run procs =
        let t = Util.Pool.with_jobs 4 compile in
        Alcotest.(check string)
          (Fmt.str "%s: -j 4 compile before p=%d equals -j 1" c.name procs)
          serial_source (Core.Pipeline.output_source t);
        let run, _ = Valid.Oracle.execute_real ~procs t.program in
        check_identity (Fmt.str "%s p=%d" c.name procs)
          (Valid.Oracle.execute t.program) run
      in
      compile_and_run 2;
      compile_and_run 4)
    Suite.Registry.all

(* ------------------------------------------------------------------ *)
(* Plans: each loop planned once, its buffers kept across executions   *)

(* HIST's two regions run three times, with the dummy H bound to an 8-,
   a 64- and again an 8-element actual.  Each region keeps its
   accumulators and private copies from one execution to the next, so it
   must resize them to the binding of the moment: a buffer kept at 8
   elements would fault on the 64-element call (the order 64, 8, 64
   would hide that). *)
let hist_src =
  "      PROGRAM HPROG\n\
   \      INTEGER I\n\
   \      REAL A(64), B(8)\n\
   \      DO I = 1, 64\n\
   \        A(I) = 0.25 * I\n\
   \      END DO\n\
   \      DO I = 1, 8\n\
   \        B(I) = 1.0\n\
   \      END DO\n\
   \      CALL HIST(B, 8)\n\
   \      CALL HIST(A, 64)\n\
   \      CALL HIST(B, 8)\n\
   \      PRINT *, A(1), A(64), B(1), B(8)\n\
   \      END\n\
   \n\
   \      SUBROUTINE HIST(H, N)\n\
   \      INTEGER N, I, K\n\
   \      REAL H(N), T\n\
   \      DO I = 1, 100\n\
   \        K = MOD(I * 7, N) + 1\n\
   \        H(K) = H(K) + 1.0\n\
   \      END DO\n\
   \      DO I = 1, N\n\
   \        T = H(I) * 0.5\n\
   \        H(I) = T + 1.0\n\
   \      END DO\n\
   \      END\n"

let test_plans_follow_dummy_shapes () =
  (* parallelized without inlining, so the regions stay in HIST *)
  let p = Frontend.Parser.parse_string hist_src in
  ignore (Passes.Parallelize.run ~mode:Passes.Parallelize.Polaris p);
  let reference = Valid.Oracle.execute p in
  List.iter
    (fun procs ->
      let run, (s : Machine.Parexec.stats) = Valid.Oracle.execute_real ~procs p in
      check_identity ~cmp:{ Valid.Oracle.ulp_tol = 0; rel_tol = 0.0 }
        (Fmt.str "hist p=%d" procs) reference run;
      Alcotest.(check int) (Fmt.str "hist p=%d: every region forked" procs) 8 s.regions;
      Alcotest.(check int) (Fmt.str "hist p=%d: none declined" procs) 0 s.serial_loops)
    [ 2; 4 ]

(* a DOALL loop's clause record is logged once, at its first fork, not
   once per execution *)
let test_one_record_per_forked_loop () =
  let repeated = ref false in
  List.iter
    (fun (c : Suite.Code.t) ->
      let _, (s : Machine.Parexec.stats) =
        Valid.Oracle.execute_real ~procs:2 (compile_polaris c.source)
      in
      let sids = List.map (fun (ri : Machine.Parexec.region_info) -> ri.ri_sid) s.region_infos in
      let loops = List.length (List.sort_uniq Int.compare sids) in
      let doall_regions = s.regions - s.spec_success in
      Alcotest.(check int) (c.name ^ ": one record per forked loop") loops (List.length sids);
      Alcotest.(check bool) (c.name ^ ": a record iff a DOALL region forked")
        (doall_regions > 0) (loops > 0);
      if doall_regions > loops then repeated := true)
    Suite.Registry.all;
  Alcotest.(check bool) "some loop forked more than once" true !repeated

(* WAVE5 speculates on one loop seven times per run.  A verdict depends
   only on the accesses of its own execution, whatever the domain count
   (the merged marks are a single shadow's), so the kept shadows must
   start every execution clean: a mark left over from an earlier one
   turns commits into rollbacks without changing any output. *)
let test_lrpd_verdicts_per_execution () =
  let p = compile_polaris (Suite.Registry.find "WAVE5").source in
  List.iter
    (fun procs ->
      let _, (s : Machine.Parexec.stats) = Valid.Oracle.execute_real ~procs p in
      Alcotest.(check (triple int int int))
        (Fmt.str "WAVE5 p=%d: attempts, committed, rolled back" procs)
        (7, 6, 1)
        (s.spec_attempts, s.spec_success, s.spec_failures))
    [ 2; 4 ]

let tests =
  [ ("DOALL executes on domains", `Quick, test_doall_executes_for_real);
    ("reductions match serial", `Quick, test_reductions_match_serial);
    ("reduction merge deterministic", `Quick, test_reduction_merge_deterministic);
    ("LRPD success commits", `Quick, test_speculation_success_commits);
    ("LRPD failure restores bitwise", `Quick, test_speculation_failure_restores_bitwise);
    ("fuzz parallel vs serial (100 seeds)", `Slow, test_fuzz_parallel_vs_serial);
    ("differential_real report", `Quick, test_differential_real_report);
    ("suite codes match serial at p = 2/4", `Quick, test_suite_matches_serial);
    ("one pool batch per forked region", `Quick, test_one_batch_per_region);
    ("compile batches and regions interleave", `Quick,
     test_compile_and_regions_interleave);
    ("plans follow dummy shapes (8, 64, 8)", `Quick, test_plans_follow_dummy_shapes);
    ("one clause record per forked loop", `Quick, test_one_record_per_forked_loop);
    ("LRPD verdicts per execution (WAVE5)", `Quick, test_lrpd_verdicts_per_execution) ]
