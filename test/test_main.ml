(* Test runner: one alcotest binary over every library of the
   reproduction. *)

(* Per-test watchdog: a test case still running after [deadline_s]
   seconds is reported by name and the whole run exits non-zero, so a
   hang fails the suite instead of stalling it.  The watchdog is its own
   domain, so it fires even when every thread of the test is blocked. *)
let deadline_s = 300.0

let running : (string * float) option Atomic.t = Atomic.make None

let start_watchdog () =
  (* alcotest redirects stderr into each test's log while it runs *)
  let console = Unix.dup Unix.stderr in
  ignore
    (Domain.spawn (fun () ->
         let rec loop () =
           Unix.sleepf 1.0;
           (match Atomic.get running with
           | Some (name, t0) when Unix.gettimeofday () -. t0 > deadline_s ->
             let msg =
               Printf.sprintf "\nwatchdog: test %S still running after %.0f s; aborting\n"
                 name deadline_s
             in
             ignore (Unix.write_substring console msg 0 (String.length msg));
             Unix._exit 124
           | _ -> ());
           loop ()
         in
         loop ()))

let watched group (name, speed, f) =
  ( name,
    speed,
    fun x ->
      Atomic.set running (Some (group ^ " / " ^ name, Unix.gettimeofday ()));
      Fun.protect ~finally:(fun () -> Atomic.set running None) (fun () -> f x) )

let () =
  start_watchdog ();
  Alcotest.run "polaris-repro"
    (List.map
       (fun (group, tests) -> (group, List.map (watched group) tests))
       [ ("util", Test_util.tests);
         ("fir", Test_fir.tests);
         ("frontend", Test_frontend.tests);
         ("symbolic", Test_symbolic.tests);
         ("machine", Test_machine.tests);
         ("analysis", Test_analysis.tests);
         ("dep", Test_dep.tests);
         ("passes", Test_passes.tests);
         ("runtime", Test_runtime.tests);
         ("parexec", Test_parexec.tests);
         ("executor", Test_executor.tests);
         ("bench", Test_bench.tests);
         ("core", Test_core.tests);
         ("suite", Test_suite.tests);
         ("fuzz", Test_fuzz.tests);
         ("incremental", Test_incremental.tests);
         ("valid", Test_valid.tests);
         ("chaos", Test_chaos.tests);
         ("cache", Test_cache.tests);
         ("pool", Test_pool.tests);
         ("registry", Test_registry.tests);
         ("backend", Test_backend.tests);
         ("serve", Test_serve.tests);
         ("chaosnet", Test_chaosnet.tests);
         ("props", Test_props.tests) ])
