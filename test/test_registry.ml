(* The pass list (Core.Pass_id), the backend registry and the command
   line.

   Two layers are pinned here.  (1) Metadata consistency: every pass's
   declared [consumes] set names an analysis cache registered with
   Util.Cachectl, whose counters the reuse ledger reads, so
   --explain-reuse can never report on a phantom cache, and it is
   exactly the set of caches the pass looks up.  (2) The CLI
   boundary: an unknown --emit-backend is a clean exit 1 from the real
   binary, never a traceback; an out-of-range numeric flag is a usage
   error (exit 124) before any work; every command's --help renders;
   the listings name every pass and backend; and the environment
   reaches only the four process-wide switches of Util.Env. *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let check_contains msg sub s =
  if not (contains ~sub s) then
    Alcotest.failf "%s: expected %S within %S" msg sub s

(* ------------------------------------------------------------------ *)
(* Metadata consistency                                                *)

let modes = [ Passes.Parallelize.Polaris; Passes.Parallelize.Baseline ]

let test_consumes_are_tracked () =
  let tracked = List.map (fun (n, _, _) -> n) (Util.Cachectl.snapshot ()) in
  List.iter
    (fun mode ->
      List.iter
        (fun p ->
          List.iter
            (fun c ->
              if not (List.mem c tracked) then
                Alcotest.failf
                  "pass %s consumes analysis %S which no registered cache \
                   provides (registered: %s)"
                  (Core.Pass_id.name p) c
                  (String.concat ", " tracked))
            (Core.Pass_id.consumes mode p))
        Core.Pass_id.all)
    modes

(* A declaration is only worth printing if it is true: in every
   reuse-ledger row of a cold compile of each of the 16 codes, under
   both configurations, the caches the pass looked up are exactly the
   ones it declares.  (Warm, a dep.verdict hit skips the proofs that
   would look up the compare.* tables.) *)
let test_consumes_match_lookups () =
  let names l = List.sort_uniq String.compare l in
  Fun.protect ~finally:Util.Cachectl.clear_all @@ fun () ->
  List.iter
    (fun (config : Core.Config.t) ->
      let config = { config with caches = true } in
      List.iter
        (fun (c : Suite.Code.t) ->
          Util.Cachectl.clear_all ();
          let t = Core.Pipeline.compile config c.source in
          List.iter
            (fun (r : Core.Pipeline.pass_reuse) ->
              let looked_up = names (List.map (fun (n, _, _) -> n) r.pr_cache) in
              if looked_up <> names r.pr_consumes then
                Alcotest.failf "%s (%s): pass %s declares [%s] but looked up [%s]"
                  c.name config.name r.pr_pass
                  (String.concat ", " r.pr_consumes)
                  (String.concat ", " looked_up))
            t.reuse)
        Suite.Registry.all)
    [ Core.Config.polaris (); Core.Config.baseline () ]

(* ------------------------------------------------------------------ *)
(* Backend registry resolution                                         *)

let test_backend_find () =
  (match Backend.Registry.find " F77-OMP " with
  | Ok b -> Alcotest.(check string) "normalized" "f77-omp"
              b.Backend.Registry.b_name
  | Error m -> Alcotest.failf "f77-omp lookup failed: %s" m);
  match Backend.Registry.find "rust" with
  | Ok _ -> Alcotest.fail "unknown backend accepted"
  | Error m ->
    check_contains "unknown backend" "unknown backend 'rust'" m;
    List.iter
      (fun n -> check_contains "known list" n m)
      Backend.Registry.names

(* ------------------------------------------------------------------ *)
(* CLI boundary: the real binary rejects bad names with exit 1          *)

let polaris_exe = "../bin/polaris_cli.exe"

let with_temp_source f =
  let path = Filename.temp_file "polaris_registry" ".f" in
  let oc = open_out path in
  output_string oc
    (String.concat "\n"
       [ "      PROGRAM T"; "      REAL A(10)"; "      DO I = 1, 4";
         "        A(I) = I"; "      END DO"; "      PRINT *, A(2)";
         "      END"; "" ]);
  close_out oc;
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let run_cli args =
  Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" polaris_exe args)

(* [polaris args] with stdin and stderr on /dev/null, killed after 20 s
   (so a daemon that accepted a bad value fails the test instead of
   hanging it): its exit code, if it exited, and its stdout *)
let run_cli_bounded args =
  let out = Filename.temp_file "polaris_registry" ".out" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process polaris_exe
      (Array.of_list (polaris_exe :: args))
      null fd null
  in
  Unix.close null;
  Unix.close fd;
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.02;
      wait ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      None
    | _, Unix.WEXITED n -> Some n
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> None
  in
  let code = wait () in
  let ic = open_in_bin out in
  let stdout = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, stdout)

let test_cli_rejects_bad_backend () =
  with_temp_source @@ fun src ->
  Alcotest.(check int) "unknown backend exits 1" 1
    (run_cli (Printf.sprintf "compile --emit-backend rust %s" src));
  Alcotest.(check int) "known backend exits 0" 0
    (run_cli (Printf.sprintf "compile --emit-backend f77-omp %s" src))

(* every numeric flag parses through its Util.Env validator, so an
   out-of-range value is Cmdliner's usage error (exit 124) before any
   work: nothing is printed, and a daemon never binds its socket *)
let test_cli_rejects_out_of_range () =
  with_temp_source @@ fun src ->
  List.iter
    (fun args ->
      let what = String.concat " " args in
      let code, stdout = run_cli_bounded args in
      Alcotest.(check (option int)) (what ^ " exits 124") (Some 124) code;
      Alcotest.(check string) (what ^ " does no work") "" stdout)
    [ [ "run"; src; "-p"; "0" ]; [ "run"; src; "--procs=-2" ];
      [ "compile"; src; "-j"; "0" ] ];
  let socket = Filename.temp_file "polaris_registry" ".sock" in
  Sys.remove socket;
  List.iter
    (fun flag ->
      let code, _ = run_cli_bounded [ "daemon"; "--socket"; socket; flag; "0" ] in
      let bound = Sys.file_exists socket in
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ socket; socket ^ ".pid" ];
      Alcotest.(check (option int)) ("daemon " ^ flag ^ " 0 exits 124")
        (Some 124) code;
      Alcotest.(check bool) ("daemon " ^ flag ^ " 0 never binds") false bound)
    [ "--max-pipeline"; "--max-sessions"; "--budget-steps" ]

let read_cli ?(env = "") args =
  let ic =
    Unix.open_process_in (Printf.sprintf "%s %s %s 2>&1" env polaris_exe args)
  in
  let b = Buffer.create 256 in
  (try
     while true do
       Buffer.add_channel b ic 1
     done
   with End_of_file -> ());
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "%s %s %s exited non-zero" env polaris_exe args);
  Buffer.contents b

(* the environment reaches only the four process-wide switches; a
   malformed one warns and falls back, never breaking a working
   invocation.  The retired twins of flags are inert. *)
let test_cli_env_falls_back () =
  with_temp_source @@ fun src ->
  List.iter
    (fun (var, value) ->
      let out = read_cli ~env:(var ^ "=" ^ value) ("compile " ^ src) in
      check_contains (var ^ " warns")
        (Printf.sprintf "warning: ignoring %s=%s" var value)
        out)
    [ ("POLARIS_JOBS", "abc"); ("POLARIS_RUNTIME_PROCS", "0");
      ("POLARIS_NO_CACHE", "maybe"); ("POLARIS_CACHE_DEBUG", "2") ];
  let out =
    read_cli ~env:"POLARIS_PIPELINE=custom:nope POLARIS_BACKEND=rust"
      ("compile " ^ src)
  in
  if contains ~sub:"warning" out then
    Alcotest.failf "a retired variable was read:\n%s" out

let subcommands =
  [ "compile"; "run"; "suite"; "validate"; "serve"; "daemon"; "client";
    "chaos"; "list-passes"; "list-backends"; "native" ]

let retired_variables =
  [ "POLARIS_PIPELINE"; "POLARIS_BACKEND"; "POLARIS_SOCKET";
    "POLARIS_CACHE_DIR"; "POLARIS_MAX_CACHE_MB"; "POLARIS_MAX_SESSIONS";
    "POLARIS_IDLE_TIMEOUT_S"; "POLARIS_FLUSH_EVERY";
    "POLARIS_FLUSH_INTERVAL_S" ]

(* every command's help renders: no escaped Cmdliner markup printed
   literally, and no mention of a variable that is no longer read *)
let test_cli_help_renders () =
  let top = read_cli "--help=plain" in
  List.iter (fun cmd -> check_contains "command listed" cmd top) subcommands;
  List.iter
    (fun cmd ->
      let help = read_cli (cmd ^ " --help=plain") in
      if contains ~sub:"$(" help then
        Alcotest.failf "%s --help prints unrendered markup:\n%s" cmd help;
      List.iter
        (fun v ->
          if contains ~sub:v help then
            Alcotest.failf "%s --help names the retired %s" cmd v)
        retired_variables)
    subcommands

let test_cli_listings () =
  let passes = read_cli "list-passes" in
  List.iter
    (fun p -> check_contains "list-passes" (Core.Pass_id.name p) passes)
    Core.Pass_id.all;
  check_contains "metadata shown" "consumes:" passes;
  check_contains "metadata shown" "disables-on-fault:" passes;
  let backends = read_cli "list-backends" in
  List.iter
    (fun n -> check_contains "list-backends" n backends)
    Backend.Registry.names

let tests =
  [ Alcotest.test_case "consumes are tracked" `Quick test_consumes_are_tracked;
    Alcotest.test_case "consumes are the caches looked up" `Quick
      test_consumes_match_lookups;
    Alcotest.test_case "backend find" `Quick test_backend_find;
    Alcotest.test_case "cli rejects bad backend" `Quick
      test_cli_rejects_bad_backend;
    Alcotest.test_case "cli rejects out-of-range flags" `Quick
      test_cli_rejects_out_of_range;
    Alcotest.test_case "cli env falls back" `Quick test_cli_env_falls_back;
    Alcotest.test_case "cli help renders for every command" `Quick
      test_cli_help_renders;
    Alcotest.test_case "cli listings" `Quick test_cli_listings ]
