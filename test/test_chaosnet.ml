(* Network chaos: the seeded fault-injecting transport
   (Serve.Chaosnet) against a live in-process daemon.  The contract
   under test is the PR-7 robustness story end to end: every transport
   fault — bit flips, torn frames, mid-frame disconnects, stalls — is
   contained to the guilty session, the daemon never aborts, and a
   retrying client converges to byte-identical results. *)

let smoke_source =
  "      PROGRAM SMOKE\n\
   \      INTEGER I, N\n\
   \      PARAMETER (N = 16)\n\
   \      REAL A(16), B(16)\n\
   \      DO I = 1, N\n\
   \        A(I) = I * 2.0\n\
   \      ENDDO\n\
   \      DO I = 1, N\n\
   \        B(I) = A(I) + 1.0\n\
   \      ENDDO\n\
   \      PRINT *, B(1)\n\
   \      END\n"

let reduce_source =
  "      PROGRAM REDUCE\n\
   \      INTEGER I\n\
   \      REAL S, A(32)\n\
   \      DO I = 1, 32\n\
   \        A(I) = I * 1.5\n\
   \      ENDDO\n\
   \      S = 0.0\n\
   \      DO I = 1, 32\n\
   \        S = S + A(I)\n\
   \      ENDDO\n\
   \      PRINT *, S\n\
   \      END\n"

let tmp_name base =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "polaris-chaosnet-%d-%s" (Unix.getpid ()) base)

let start_daemon ~socket =
  let stop = Atomic.make false in
  let ready = Atomic.make false in
  (* short idle timeout: a flipped length field can leave the daemon
     holding a forever-incomplete frame while the client waits for a
     reply that cannot come — idle eviction is the designed unstick *)
  let cfg =
    { Serve.Daemon.default_cfg with
      d_socket = socket;
      d_store_dir = None;
      d_poll_s = 0.01;
      d_idle_timeout_s = 0.3 }
  in
  let d =
    Domain.spawn (fun () ->
        Serve.Daemon.run ~stop
          ~on_ready:(fun () -> Atomic.set ready true)
          cfg)
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.002
  done;
  (d, stop)

(* the chaos plan is a pure function of the seed: two transports with
   the same seed make identical fault decisions for identical traffic *)
let test_chaos_transport_deterministic () =
  let run seed =
    let t = Serve.Chaosnet.create seed in
    let io = Serve.Chaosnet.io t in
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let wire = Serve.Protocol.frame (String.make 200 'x') in
    (try
       for _ = 1 to 25 do
         io.Serve.Client.io_send a wire
       done
     with Unix.Unix_error _ | Serve.Protocol.Malformed _ -> ());
    (try Unix.close a with Unix.Unix_error _ -> ());
    (try Unix.close b with Unix.Unix_error _ -> ());
    (t.Serve.Chaosnet.n_flips, t.n_drops, t.n_tears, t.n_delays)
  in
  Alcotest.(check bool) "same seed, same faults" true (run 42 = run 42);
  (* and the sweep range is not degenerate: some seed injects faults *)
  let f1, d1, t1, _ = run 7 in
  let f2, d2, t2, _ = run 8 in
  Alcotest.(check bool) "faults actually occur" true
    (f1 + d1 + t1 + f2 + d2 + t2 > 0)

(* a forced drop disconnects the peer but leaves the descriptor open:
   the connection's owner closes it exactly once.  Closing it inside the
   transport too would let the owner's close hit whatever connection
   the process had accepted under the same number in between. *)
let test_chaos_drop_leaves_fd_to_owner () =
  let t = Serve.Chaosnet.create ~p_flip:0.0 ~p_drop:1.0 ~p_tear:0.0 ~p_delay:0.0 1 in
  let io = Serve.Chaosnet.io t in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
  @@ fun () ->
  Alcotest.(check bool) "forced drop raises" true
    (match io.Serve.Client.io_read a (Bytes.create 1) 0 1 with
    | _ -> false
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true);
  Alcotest.(check int) "drop counted" 1 t.Serve.Chaosnet.n_drops;
  Alcotest.(check bool) "fd still open" true
    (match Unix.fstat a with
    | _ -> true
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> false);
  Alcotest.(check int) "peer reads EOF" 0 (Unix.read b (Bytes.create 1) 0 1)

(* the tentpole sweep: 100 seeds of transport chaos against one
   daemon.  Every retried client must converge to the byte-exact
   from-scratch output; the daemon must survive all of it and go down
   gracefully afterwards. *)
let test_chaos_sweep_converges () =
  let socket = tmp_name "sweep.sock" in
  let sources = [ ("smoke", smoke_source); ("reduce", reduce_source) ] in
  let config = Core.Config.polaris ~procs:8 () in
  (* expectations first: the from-scratch compile clears the shared
     caches, so it must not race the daemon *)
  Util.Cachectl.clear_all ();
  let expected = Serve.Chaosnet.expected_outputs config sources in
  let d, stop = start_daemon ~socket in
  let sweep =
    Serve.Chaosnet.run_sweep ~first_seed:1 ~seeds:100 ~retries:16
      ~deadline_s:5.0 ~socket ~expected sources
  in
  Atomic.set stop true;
  let report = Domain.join d in
  (* the daemon outlived every fault and exited cleanly *)
  Alcotest.(check bool) "daemon never aborted" true
    report.Serve.Daemon.r_graceful;
  Alcotest.(check int) "all seeds ran" 100 sweep.Serve.Chaosnet.sw_seeds;
  Alcotest.(check int) "every compile attempted" (2 * 100)
    sweep.Serve.Chaosnet.sw_compiles;
  (* convergence: byte-identical or nothing — a wrong result is the
     one outcome chaos must never produce *)
  Alcotest.(check int) "zero mismatched results" 0
    sweep.Serve.Chaosnet.sw_mismatched;
  Alcotest.(check int) "every retried client converged" 0
    sweep.Serve.Chaosnet.sw_gave_up;
  Alcotest.(check int) "converged = attempted" sweep.Serve.Chaosnet.sw_compiles
    sweep.Serve.Chaosnet.sw_converged;
  (* the sweep was not a placebo: all four fault kinds fired *)
  Alcotest.(check bool) "flips injected" true (sweep.Serve.Chaosnet.sw_flips > 0);
  Alcotest.(check bool) "drops injected" true (sweep.Serve.Chaosnet.sw_drops > 0);
  Alcotest.(check bool) "tears injected" true (sweep.Serve.Chaosnet.sw_tears > 0);
  Alcotest.(check bool) "delays injected" true
    (sweep.Serve.Chaosnet.sw_delays > 0);
  Util.Cachectl.clear_all ()

(* fault containment at the session level: a chaos session that dies
   mid-frame must not poison the next clean session *)
let test_chaos_contained_to_guilty_session () =
  let socket = tmp_name "contain.sock" in
  Util.Cachectl.clear_all ();
  let d, stop = start_daemon ~socket in
  (* a handful of hostile sessions, no retries: many will fail *)
  for seed = 1 to 10 do
    let chaos = Serve.Chaosnet.create ~p_flip:0.3 ~p_drop:0.2 seed in
    match Serve.Client.connect ~io:(Serve.Chaosnet.io chaos) ~deadline_s:5.0 socket with
    | Error _ -> ()
    | Ok c ->
      ignore (Serve.Client.compile_source c ~label:"hostile" smoke_source);
      Serve.Client.close c
  done;
  (* a clean session right after must be served normally *)
  (match Serve.Client.connect socket with
  | Error m -> Alcotest.fail m
  | Ok c ->
    (match Serve.Client.compile_source c ~label:"clean" smoke_source with
    | Ok r ->
      Alcotest.(check int) "clean session unaffected" 2
        (List.length r.co_verdicts)
    | Error m -> Alcotest.fail ("clean session failed: " ^ m));
    Serve.Client.close c);
  Atomic.set stop true;
  let report = Domain.join d in
  Alcotest.(check bool) "daemon graceful after hostile sessions" true
    report.Serve.Daemon.r_graceful;
  Util.Cachectl.clear_all ()

let tests =
  [ ("chaos transport is seed-deterministic", `Quick,
     test_chaos_transport_deterministic);
    ("chaos contained to the guilty session", `Quick,
     test_chaos_contained_to_guilty_session);
    ("drop leaves the fd to its owner", `Quick,
     test_chaos_drop_leaves_fd_to_owner);
    ("100-seed chaos sweep converges byte-identically", `Slow,
     test_chaos_sweep_converges) ]
