(* The work-stealing domain pool: deterministic merge semantics, exact
   scheduler telemetry, and end-to-end byte-identity of the whole
   compiler between -j 1 and -j 8.

   The pool's contract is that [Pool.map f xs] is observably
   [List.map f xs] at any job count: results in
   input order, earliest failure re-raised.  The fuzz check below is
   the teeth: 100 random programs through the full Polaris pipeline,
   comparing the annotated output source, the per-loop verdicts and the
   incident list between a serial and an 8-domain compile.  (Statement
   ids are excluded from the comparison everywhere: their values depend
   on allocation order across domains and carry no meaning beyond
   uniqueness.) *)

open Util

(* spin so tasks finish in scrambled wall-clock order without Unix *)
let burn n =
  let x = ref 0 in
  for i = 1 to n * 10_000 do
    x := !x + i
  done;
  ignore !x

let test_ordering () =
  let xs = List.init 40 Fun.id in
  let serial = List.map (fun i -> i * i) xs in
  let pooled =
    Pool.with_jobs 4 (fun () ->
        Pool.map
          (fun i ->
            (* earlier items do more work: without an ordered merge the
               results would come back scrambled *)
            burn (40 - i);
            i * i)
          xs)
  in
  Alcotest.(check (list int)) "results in input order" serial pooled

let test_exception_earliest () =
  let attempt jobs =
    match
      Pool.with_jobs jobs (fun () ->
          Pool.map
            (fun i ->
              if i = 3 || i = 7 then failwith (Printf.sprintf "boom-%d" i);
              burn (20 - i);
              i)
            (List.init 12 Fun.id))
    with
    | _ -> "no exception"
    | exception Failure m -> m
  in
  (* the serial map raises at element 3 and never reaches 7; the pool
     must surface the same exception even when task 7 fails first *)
  Alcotest.(check string) "serial raises earliest" "boom-3" (attempt 1);
  Alcotest.(check string) "pool raises earliest" "boom-3" (attempt 4)

let test_nested_submit_rejected () =
  let r =
    Pool.with_jobs 2 (fun () ->
        Pool.map
          (fun i ->
            match Pool.map Fun.id [ 1; 2 ] with
            | _ -> `Nested_ran
            | exception Pool.Nested_submit -> `Rejected i)
          [ 0; 1; 2 ])
  in
  Alcotest.(check bool) "nested map rejected on every task" true
    (List.for_all (function `Rejected _ -> true | _ -> false) r)

let test_shutdown_respawn () =
  let go () =
    Pool.with_jobs 3 (fun () -> Pool.map (fun i -> i + 1) [ 1; 2; 3; 4; 5 ])
  in
  Alcotest.(check (list int)) "first batch" [ 2; 3; 4; 5; 6 ] (go ());
  (* an idle shutdown must be invisible: the next map respawns *)
  Pool.shutdown ();
  Alcotest.(check (list int)) "after shutdown" [ 2; 3; 4; 5; 6 ] (go ());
  (* changing the job count swaps the pool transparently too *)
  let wider =
    Pool.with_jobs 5 (fun () -> Pool.map (fun i -> i * 10) [ 1; 2; 3 ])
  in
  Alcotest.(check (list int)) "resized pool" [ 10; 20; 30 ] wider

let test_scheduler_counters () =
  let delta f =
    let base = Pool.counters () in
    let r = f () in
    (r, Pool.counters_delta ~base (Pool.counters ()))
  in
  (* the cost model cuts 40 unweighted tasks on 4 slots into chunks of
     ceil (40 / (4 * 4)) = 3 tasks: 14 chunks in one fanned batch *)
  let r, d =
    delta (fun () ->
        Pool.with_jobs 4 (fun () -> Pool.map (fun i -> i + 1) (List.init 40 Fun.id)))
  in
  Alcotest.(check (list int)) "fanned results" (List.init 40 (fun i -> i + 1)) r;
  Alcotest.(check int) "one fanned batch" 1 d.c_batches;
  Alcotest.(check int) "no inline batch" 0 d.c_inline;
  Alcotest.(check int) "every task executed exactly once" 40 d.c_tasks;
  Alcotest.(check int) "chunks of three tasks" 14 d.c_chunks;
  Alcotest.(check bool) "steal count is sane" true (d.c_steals >= 0);
  (* a plan of one chunk short-circuits to the inline path: no fan-out,
     no wake-up *)
  let r, d = delta (fun () -> Pool.with_jobs 4 (fun () -> Pool.map (fun i -> i * 2) [ 21 ])) in
  Alcotest.(check (list int)) "inline results" [ 42 ] r;
  Alcotest.(check int) "inline batch counted" 1 d.c_inline;
  Alcotest.(check int) "no fanned batch" 0 d.c_batches;
  (* [~slots] overrides the job count, as a parallel region's procs do:
     two slots fan out at -j 1, one task per chunk *)
  let r, d =
    delta (fun () -> Pool.with_jobs 1 (fun () -> Pool.map ~slots:2 (fun i -> i - 1) [ 1; 2 ]))
  in
  Alcotest.(check (list int)) "slot results" [ 0; 1 ] r;
  Alcotest.(check int) "two slots fan out" 1 d.c_batches;
  Alcotest.(check int) "one chunk per block" 2 d.c_chunks

let test_jobs_clamping () =
  (* the ambient job count is whatever POLARIS_JOBS says (the whole
     suite runs under =4 in CI): compare against it, don't assume 1 *)
  let ambient = Pool.jobs () in
  Pool.with_jobs 0 (fun () ->
      Alcotest.(check int) "0 clamps to 1" 1 (Pool.jobs ());
      Alcotest.(check bool) "1 job is serial" false (Pool.parallel ()));
  Pool.with_jobs 100_000 (fun () ->
      Alcotest.(check int) "huge clamps to max" Pool.max_jobs (Pool.jobs ()));
  Alcotest.(check int) "with_jobs restores" ambient (Pool.jobs ())

(* ------------------------------------------------------------------ *)
(* End-to-end byte-identity: -j 1 vs -j 4 over fuzzed programs         *)

(* everything observable about one compilation, statement ids excluded *)
let compile_signature src =
  Cachectl.clear_all ();
  let t = Core.Pipeline.compile (Core.Config.polaris ()) src in
  ( Core.Pipeline.output_source t,
    List.map
      (fun (l : Core.Pipeline.loop_result) ->
        ( l.unit_name, l.report.loop_index, l.report.parallel,
          l.report.speculative, l.report.reason ))
      t.loops,
    List.map
      (fun (i : Core.Pipeline.incident) ->
        (i.inc_pass, i.inc_reason, i.inc_rolled_back, i.inc_disabled))
      t.incidents )

(* each [(label, source)] must compile identically at -j 1 and at every
   job count in [jobs]: output, verdicts, incidents and the dependence-test
   counters, which the tally merge replays in program order *)
let check_jobs_identity ~jobs sources =
  let compile j src =
    let base = Dep.Driver.counters_snapshot () in
    let signature = Pool.with_jobs j (fun () -> compile_signature src) in
    let now = Dep.Driver.counters_snapshot () in
    (signature, Dep.Driver.counters_delta ~base now)
  in
  List.iter
    (fun (label, src) ->
      let serial, serial_counters = compile 1 src in
      List.iter
        (fun j ->
          let pooled, pooled_counters = compile j src in
          if pooled <> serial then
            Alcotest.failf "%s: -j %d compile differs from -j 1" label j;
          if pooled_counters <> serial_counters then
            Alcotest.failf "%s: -j %d dependence counters differ from -j 1"
              label j)
        jobs)
    sources

let test_fuzz_identity () =
  check_jobs_identity ~jobs:[ 8 ]
    (List.init 100 (fun i ->
         let seed = i + 1 in
         (Fmt.str "seed %d" seed, Test_fuzz.gen_program (Util.Prng.create seed))))

(* every suite code, at the job counts a 2- and a 4-core host run *)
let test_suite_identity () =
  check_jobs_identity ~jobs:[ 2; 4 ]
    (List.map (fun (c : Suite.Code.t) -> (c.name, c.source)) Suite.Registry.all)

let tests =
  [ Alcotest.test_case "map merges in input order" `Quick test_ordering;
    Alcotest.test_case "earliest task failure wins" `Quick
      test_exception_earliest;
    Alcotest.test_case "nested submission is rejected" `Quick
      test_nested_submit_rejected;
    Alcotest.test_case "shutdown is transparent" `Quick test_shutdown_respawn;
    Alcotest.test_case "job count clamping" `Quick test_jobs_clamping;
    Alcotest.test_case "scheduler counters are exact" `Quick
      test_scheduler_counters;
    Alcotest.test_case "-j1 vs -j8 byte-identical (100 fuzz seeds)" `Slow
      test_fuzz_identity;
    Alcotest.test_case "suite codes byte-identical at -j 1/2/4" `Quick
      test_suite_identity ]
