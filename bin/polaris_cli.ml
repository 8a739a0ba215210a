(** The polaris command-line driver.

    - [polaris compile FILE]: parse, restructure, print the annotated
      parallel Fortran source (CPOLARIS$ directives) and the per-loop
      report.
    - [polaris run FILE]: compile and simulate on a p-processor machine,
      reporting serial/parallel simulated time and speedup.
    - [polaris suite [NAME]]: list the evaluation suite, or compile+run
      one of its codes under both pipelines.
    - [polaris validate FILE | --suite]: translation validation — run
      the pass pipeline with the per-pass snapshot oracle attached and
      differentially execute every intermediate program against the
      original; non-zero exit on any divergence.
    - [polaris serve FILE...]: incremental recompilation — compile a
      sequence of sources (edit deltas) in one process, reusing every
      analysis whose program unit is unchanged; [--check] compares each
      compile against a from-scratch one.
    - [polaris daemon]: the long-lived compile server — multiple client
      sessions over a unix-domain socket share one analysis store,
      persistent on disk under [--store].
    - [polaris client FILE...]: compile files on a running daemon.

    Every setting is one Cmdliner declaration, from which Cmdliner
    derives its [--help] entry and its default; the settings several
    commands share are declared once below.  Numeric and path flags
    parse through the {!Util.Env} validators, so an out-of-range value
    is a usage error (exit 124) before any work starts. *)

open Cmdliner

(* user-facing failures print one clean line and exit 1; backtraces are
   for bugs in the compiler, not for bad inputs *)
let with_errors f =
  try f () with
  | Sys_error m ->
    Fmt.epr "polaris: %s@." m;
    exit 1
  | Frontend.Lexer.Error m ->
    Fmt.epr "polaris: lexical error: %s@." m;
    exit 1
  | Frontend.Parser.Error m ->
    Fmt.epr "polaris: syntax error: %s@." m;
    exit 1
  | Fir.Consistency.Violation m ->
    Fmt.epr "polaris: IR consistency violation: %s@." m;
    exit 1
  | Machine.Interp.Runtime_error m ->
    Fmt.epr "polaris: runtime error: %s@." m;
    exit 1
  | Machine.Interp.Fuel_exhausted m ->
    Fmt.epr "polaris: execution fuel exhausted %s@." m;
    exit 1
  | Machine.Storage.Fault m ->
    Fmt.epr "polaris: storage fault: %s@." m;
    exit 1
  | Core.Simulate.Output_mismatch ->
    Fmt.epr "polaris: internal error: serial/parallel output mismatch@.";
    exit 1
  | Serve.Daemon.Already_running (pid, sock) ->
    Fmt.epr
      "polaris: a daemon (pid %d) already owns %s; use `polaris client \
       --shutdown' to stop it@."
      pid sock;
    exit 1

(* ----- shared flags ----- *)

let jobs_conv = Arg.conv' (Util.Env.parse_jobs, Fmt.int)
let count_conv = Arg.conv' (Util.Env.parse_count, Fmt.int)
let seconds_conv = Arg.conv' (Util.Env.parse_seconds, Fmt.float)
let mb_conv = Arg.conv' (Util.Env.parse_mb, Fmt.int)
let path_conv = Arg.conv' (Util.Env.parse_path, Fmt.string)

(* --emit-backend resolves against Backend.Registry; a bad name is a
   hard error (exit 1) *)
let backend_term : Backend.Registry.t option Term.t =
  let flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-backend" ] ~docv:"NAME"
          ~doc:
            "Emission backend for the transformed source: $(b,f77) (the \
             default round-tripping unparser), $(b,f77-omp) (!\\$OMP \
             directives from the compiler's verdicts) or $(b,c) (portable C \
             with OpenMP pragmas); see $(b,polaris list-backends).")
  in
  let resolve name =
    match Backend.Registry.find name with
    | Ok b -> b
    | Error m ->
      Fmt.epr "polaris: --emit-backend: %s@." m;
      exit 1
  in
  Term.(const (Option.map resolve) $ flag)

(* -j/--jobs on every command that compiles, applied to the process-wide
   pool before the command body runs.  Output is byte-identical at any
   job count, so this is purely a wall-clock knob. *)
let jobs_term : unit Term.t =
  let jobs =
    Arg.(
      value
      & opt jobs_conv (Util.Pool.jobs ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Compiler worker domains for dependence analysis and validation; \
             the default follows $(b,POLARIS_JOBS).  Output is \
             byte-identical at every N.")
  in
  Term.(const Util.Pool.set_jobs $ jobs)

let baseline_flag =
  Arg.(value & flag & info [ "baseline" ] ~doc:"Use the baseline (PFA-like) pipeline")

let procs_flag =
  Arg.(
    value & opt count_conv 8
    & info [ "p"; "procs" ] ~docv:"N" ~doc:"Simulated processor count")

let emit_flag =
  Arg.(value & flag & info [ "emit" ] ~doc:"Print each compile's transformed source")

(* the compile configuration: --baseline and the simulated machine size *)
let config_term (procs : int Term.t) : Core.Config.t Term.t =
  let make baseline procs =
    if baseline then Core.Config.baseline ~procs ()
    else Core.Config.polaris ~procs ()
  in
  Term.(const make $ baseline_flag $ procs)

let strict_flag =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Disable fault containment: re-raise the first pass fault instead \
           of rolling the pass back (debugging)")

(* fail-safe contract: a compilation that contained pass faults still
   produced a correct (possibly less optimized) program, but the caller
   must be able to tell — exit 2, distinct from hard failures (exit 1) *)
let exit_on_incidents (t : Core.Pipeline.t) =
  if t.incidents <> [] then begin
    Fmt.epr "polaris: compiled with %d contained incident(s):@."
      (List.length t.incidents);
    List.iter
      (fun i -> Fmt.epr "  %a@." Core.Pipeline.pp_incident i)
      t.incidents;
    exit 2
  end

let explain_reuse_flag =
  Arg.(
    value & flag
    & info [ "explain-reuse" ]
        ~doc:
          "After compiling, print the per-pass table of analyses consumed \
           and cache entries reused/computed")

let file_pos =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Fortran source file")

let required_file file =
  match file with
  | Some f -> f
  | None ->
    Fmt.epr "polaris: missing FILE argument@.";
    exit 1

(* ----- compile ----- *)

let compile_cmd =
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only print the transformed source")
  in
  let run file config quiet strict () explain_reuse backend =
    with_errors (fun () ->
        let file = required_file file in
        let b = Option.value backend ~default:Backend.Registry.default in
        let source = Serve.Local.read_file file in
        let t = Core.Pipeline.compile ~strict config source in
        if not quiet then Fmt.pr "%a@." Core.Pipeline.pp_summary t;
        if explain_reuse then Fmt.pr "%a" Valid.Trace.pp_reuse_table t.reuse;
        print_string (b.Backend.Registry.b_emit t.program);
        exit_on_incidents t)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Restructure a Fortran program and print it")
    Term.(
      const run $ file_pos $ config_term (const 8) $ quiet $ strict_flag
      $ jobs_term $ explain_reuse_flag $ backend_term)

(* ----- run ----- *)

let run_cmd =
  let real =
    Arg.(
      value & flag
      & info [ "real" ]
          ~doc:
            "Also execute the compiled program for real: DOALL and \
             speculative loops run on OCaml domains and both lanes are \
             timed with a wall clock (measured, not modeled)")
  in
  let real_procs =
    Arg.(
      value
      & opt jobs_conv Util.Env.runtime_procs
      & info [ "real-procs" ] ~docv:"N"
          ~doc:
            "Domains that run $(b,--real)'s parallel regions, as batches \
             on the compiler's worker pool; the default follows \
             $(b,POLARIS_RUNTIME_PROCS), or the host's recommended domain \
             count capped at 8")
  in
  let go file (cfg : Core.Config.t) real real_procs strict () =
    with_errors (fun () ->
        let file = required_file file in
        let source = Serve.Local.read_file file in
        let t, r = Core.Simulate.compile_and_run ~strict cfg source in
        Fmt.pr "%a@." Core.Pipeline.pp_summary t;
        Fmt.pr "serial time   : %d@." r.serial_time;
        Fmt.pr "parallel time : %d (%d processors)@." r.parallel_time cfg.procs;
        Fmt.pr "speedup       : %.2fx@." r.speedup;
        if real then begin
          let m = Core.Simulate.run_measured ~procs:real_procs t.program in
          let s = m.stats in
          Fmt.pr
            "real exec     : p=%d  serial %.4fs  parallel %.4fs  speedup \
             %.2fx (measured)@."
            m.m_procs m.serial_wall m.parallel_wall m.wall_speedup;
          Fmt.pr
            "real regions  : %d forked (%d iterations); speculation %d ok / \
             %d failed; %d loops declined@."
            s.Machine.Parexec.regions s.Machine.Parexec.par_iters
            s.Machine.Parexec.spec_success s.Machine.Parexec.spec_failures
            s.Machine.Parexec.serial_loops;
          let divs =
            Valid.Oracle.compare_captures Valid.Oracle.real_cmp
              m.serial_capture m.parallel_capture
          in
          if divs <> [] then begin
            Fmt.epr "polaris: real execution diverged from serial:@.";
            List.iteri
              (fun i d ->
                if i < 5 then Fmt.epr "  %a@." Valid.Oracle.pp_divergence d)
              divs;
            exit 1
          end
        end;
        List.iter (fun l -> Fmt.pr "output: %s@." l) r.output;
        exit_on_incidents t)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and execute on the simulated multiprocessor")
    Term.(
      const go $ file_pos $ config_term procs_flag $ real $ real_procs
      $ strict_flag $ jobs_term)

(* ----- suite ----- *)

let suite_cmd =
  let code_name =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Suite code name")
  in
  let go code_name procs () =
    with_errors (fun () ->
        match code_name with
        | None ->
          Fmt.pr "%-8s %-8s %s@." "name" "origin" "description";
          List.iter
            (fun (c : Suite.Code.t) ->
              Fmt.pr "%-8s %-8s %s@." c.name
                (Suite.Code.origin_to_string c.origin)
                c.description)
            Suite.Registry.all
        | Some name -> (
          match Suite.Registry.find name with
          | c ->
            let _, rp =
              Core.Simulate.compile_and_run (Core.Config.polaris ~procs ()) c.source
            in
            let _, rb =
              Core.Simulate.compile_and_run (Core.Config.baseline ~procs ()) c.source
            in
            Fmt.pr "%s (%s): %s@." c.name
              (Suite.Code.origin_to_string c.origin)
              c.description;
            Fmt.pr "enabling techniques: %s@." (String.concat "; " c.enabling);
            Fmt.pr "polaris : %.2fx   (paper ~%.1fx)@." rp.speedup c.paper_polaris_speedup;
            Fmt.pr "baseline: %.2fx   (paper PFA ~%.1fx)@." rb.speedup c.paper_pfa_speedup
          | exception Not_found ->
            Fmt.epr "unknown code %s; try `polaris suite' for the list@." name;
            exit 1))
  in
  Cmd.v
    (Cmd.info "suite" ~doc:"List or run the evaluation-suite codes")
    Term.(const go $ code_name $ procs_flag $ jobs_term)

(* ----- validate ----- *)

(* a comma-separated list, each element through [parse]; a bad element
   exits 1 *)
let parse_list ~what parse s =
  if String.trim s = "" then []
  else
    String.split_on_char ',' s
    |> List.map (fun tok ->
           match parse tok with
           | Ok n -> n
           | Error m ->
             Fmt.epr "polaris: bad %s list %S: %s@." what s m;
             exit 1)

let parse_int tok =
  Option.to_result ~none:"expected an integer"
    (int_of_string_opt (String.trim tok))

let checks_of_report (r : Valid.Snapshot.report) =
  List.fold_left
    (fun acc (s : Valid.Snapshot.stage_report) ->
      match s.status with
      | Valid.Snapshot.Ok_validated o | Valid.Snapshot.Diverged o ->
        acc + o.checks
      | _ -> acc)
    0 r.stages

(* validate one source under one config; returns the report *)
let validate_one ~cmp ~procs_list ~seeds ~label (config : Core.Config.t)
    (source : string) : Valid.Snapshot.report =
  let t0 = Sys.time () in
  let _, report =
    Valid.Snapshot.validated_compile ~cmp ~procs_list ~seeds config source
  in
  let dt = Sys.time () -. t0 in
  if Valid.Snapshot.ok report then
    Fmt.pr "%-10s %-9s ok     %2d stages  %4d checks  %6.2fs@." label
      config.name
      (List.length report.stages)
      (checks_of_report report) dt
  else begin
    Fmt.pr "%-10s %-9s FAIL@." label config.name;
    Fmt.pr "@[<v>%a@]@." Valid.Snapshot.pp_report report
  end;
  report

let validate_cmd =
  let suite =
    Arg.(value & flag & info [ "suite" ] ~doc:"Validate all 16 evaluation-suite codes")
  in
  let baseline_only =
    Arg.(value & flag & info [ "baseline" ] ~doc:"Only the baseline pipeline (default: both)")
  in
  let polaris_only =
    Arg.(value & flag & info [ "polaris" ] ~doc:"Only the Polaris pipeline (default: both)")
  in
  let ulp =
    Arg.(value & opt int 2 & info [ "ulp" ] ~doc:"Float tolerance in units-in-the-last-place")
  in
  let seeds =
    Arg.(value & opt string ""
         & info [ "seeds" ] ~docv:"S1,S2"
             ~doc:"Extra splitmix64-seeded initial stores (comma-separated)")
  in
  let procs =
    Arg.(value & opt string "1,2,4,8"
         & info [ "p"; "procs" ] ~docv:"P1,P2"
             ~doc:"Machine sizes for the parallel-timing runs")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"OUT.json"
             ~doc:"Write the flight-recorder + validation report as JSON")
  in
  let real_procs =
    Arg.(value & opt string ""
         & info [ "real-procs" ] ~docv:"P1,P2"
             ~doc:"Also execute each compiled program for real on these \
                   OCaml domain counts and require identity with the serial \
                   interpreter (float reductions compared under the \
                   reassociation-aware ULP tolerance; default: off)")
  in
  let go file suite baseline_only polaris_only ulp seeds procs trace_out
      real_procs () =
    with_errors (fun () ->
        let cmp = { Valid.Oracle.default_cmp with ulp_tol = ulp } in
        let seeds = parse_list ~what:"seed" parse_int seeds in
        let procs_list =
          parse_list ~what:"processor" Util.Env.parse_count procs
        in
        let procs_list = if procs_list = [] then [ 1; 2; 4; 8 ] else procs_list in
        let real_procs_list =
          parse_list ~what:"processor" Util.Env.parse_jobs real_procs
        in
        let configs =
          match (baseline_only, polaris_only) with
          | true, false -> [ Core.Config.baseline () ]
          | false, true -> [ Core.Config.polaris () ]
          | _ -> [ Core.Config.polaris (); Core.Config.baseline () ]
        in
        let targets =
          if suite then
            List.map
              (fun (c : Suite.Code.t) -> (c.name, c.source))
              Suite.Registry.all
          else
            let f = required_file file in
            [ (Filename.basename f, Serve.Local.read_file f) ]
        in
        let results =
          List.concat_map
            (fun (label, source) ->
              List.map
                (fun config ->
                  ( label,
                    config.Core.Config.name,
                    validate_one ~cmp ~procs_list ~seeds ~label config source ))
                configs)
            targets
        in
        (* the real-execution lane: the compiled program must reproduce
           its own serial semantics when the annotated loops actually
           run on domains *)
        let real_failures =
          if real_procs_list = [] then []
          else begin
            let real_cmp =
              { Valid.Oracle.real_cmp with
                ulp_tol =
                  max ulp Valid.Oracle.real_cmp.Valid.Oracle.ulp_tol }
            in
            List.concat_map
              (fun (label, source) ->
                List.filter_map
                  (fun (config : Core.Config.t) ->
                    let t = Core.Pipeline.compile config source in
                    let report =
                      Valid.Oracle.differential_real ~cmp:real_cmp
                        ~procs_list:real_procs_list ~seeds
                        t.Core.Pipeline.program ()
                    in
                    if Valid.Oracle.equivalent report then begin
                      Fmt.pr "%-10s %-9s real ok %4d checks (p=%s)@." label
                        config.name report.Valid.Oracle.checks
                        (String.concat ","
                           (List.map string_of_int real_procs_list));
                      None
                    end
                    else begin
                      Fmt.pr "%-10s %-9s real FAIL@.  @[<v>%a@]@." label
                        config.name Valid.Oracle.pp_report report;
                      Some (label, config.name)
                    end)
                  configs)
              targets
          end
        in
        (* the emission lane: every registered backend over every
           (code, configuration) row.  Re-parsing backends must round-trip
           through our own frontend and print what the transformed
           program prints; non-reparsing backends must at least emit
           deterministically (their semantics are pinned by the golden
           suite and `polaris native`). *)
        let emit_failures =
          List.concat_map
            (fun (label, source) ->
              List.concat_map
                (fun (config : Core.Config.t) ->
                  let t = Core.Pipeline.compile config source in
                  let prog = t.Core.Pipeline.program in
                  List.filter_map
                    (fun (b : Backend.Registry.t) ->
                      let output = b.b_emit prog in
                      let verdict =
                        if b.b_reparses then
                          match Frontend.Parser.parse_string output with
                          | exception e ->
                            Some ("reparse: " ^ Printexc.to_string e)
                          | p2 ->
                            let want =
                              (Machine.Interp.run prog).Machine.Interp.output
                            in
                            let got =
                              (Machine.Interp.run p2).Machine.Interp.output
                            in
                            if want = got then None
                            else Some "oracle divergence on re-parsed output"
                        else if String.equal output (b.b_emit prog) then None
                        else Some "nondeterministic emission"
                      in
                      match verdict with
                      | None ->
                        Fmt.pr "%-10s %-9s emit %-8s ok (%d bytes)@." label
                          config.name b.b_name (String.length output);
                        None
                      | Some m ->
                        Fmt.pr "%-10s %-9s emit %-8s FAIL (%s)@." label
                          config.name b.b_name m;
                        Some (label, config.name, b.b_name))
                    Backend.Registry.all)
                configs)
            targets
        in
        (match trace_out with
        | None -> ()
        | Some path ->
          let oc = open_out path in
          let entries =
            List.map
              (fun (label, cfg, report) ->
                Valid.Trace.Json.obj
                  [ ("code", Valid.Trace.Json.str label);
                    ("config", Valid.Trace.Json.str cfg);
                    ("report", Valid.Snapshot.report_json report) ])
              results
          in
          output_string oc (Valid.Trace.Json.arr entries);
          output_string oc "\n";
          close_out oc;
          Fmt.pr "flight record written to %s@." path);
        let failures =
          List.filter (fun (_, _, r) -> not (Valid.Snapshot.ok r)) results
        in
        if failures <> [] || real_failures <> [] || emit_failures <> []
        then begin
          if failures <> [] then
            Fmt.epr "validation failed on %d of %d compilations@."
              (List.length failures) (List.length results);
          if real_failures <> [] then
            Fmt.epr "real execution diverged on %d compilations@."
              (List.length real_failures);
          if emit_failures <> [] then
            Fmt.epr "backend emission failed on %d rows@."
              (List.length emit_failures);
          exit 1
        end)
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Translation-validate the pipeline by differential execution")
    Term.(
      const go $ file_pos $ suite $ baseline_only $ polaris_only $ ulp $ seeds
      $ procs $ trace_out $ real_procs $ jobs_term)

(* ----- serve ----- *)

let serve_cmd =
  let files =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:
            "Fortran source files to compile in sequence (typically edit \
             deltas of one program).  With no FILE arguments, paths are \
             read from stdin, one per line — an editor or build daemon can \
             stream recompile requests.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "After every incremental compile, recompile the same source \
             from scratch (caches cleared) and compare annotated output, \
             per-loop verdicts, incidents and dependence counters; exit \
             non-zero on any divergence")
  in
  let go files config check emit strict () explain_reuse backend =
    with_errors (fun () ->
        let paths =
          if files <> [] then files
          else
            let rec loop acc =
              match input_line stdin with
              | line ->
                let line = String.trim line in
                loop (if line = "" then acc else line :: acc)
              | exception End_of_file -> List.rev acc
            in
            loop []
        in
        if paths = [] then begin
          Fmt.epr "polaris: serve: no input files@.";
          exit 1
        end;
        let bk = Option.value backend ~default:Backend.Registry.default in
        let divergent = ref 0 in
        let incidents = ref 0 in
        let failed = ref 0 in
        List.iteri
          (fun i path ->
            (* per-file containment: an unreadable or unparseable path
               fails THIS file; the session keeps serving the rest *)
            match
              Serve.Local.compile_path ~strict ~check ~backend:bk config path
            with
            | Error msg ->
              incr failed;
              Fmt.epr "[%d/%d] %-20s ERROR: %s@." (i + 1) (List.length paths)
                path msg
            | Ok c ->
              let r = c.lc_result in
              let s = r.stats in
              Fmt.pr "[%d/%d] %-20s %d/%d loops parallel   reuse %5.1f%% (%d/%d analysis lookups)@."
                (i + 1) (List.length paths) path
                (List.length (Core.Pipeline.parallel_loops r.pipeline))
                (List.length r.pipeline.loops)
                (100.0 *. s.st_reuse_rate) s.st_hits s.st_lookups;
              incidents := !incidents + List.length r.pipeline.incidents;
              List.iter
                (fun inc -> Fmt.pr "    %a@." Core.Pipeline.pp_incident inc)
                r.pipeline.incidents;
              if explain_reuse then
                Fmt.pr "%a" Valid.Trace.pp_reuse_table r.pipeline.reuse;
              if emit then print_string c.lc_output;
              if check then begin
                match c.lc_check_divergences with
                | [] -> Fmt.pr "    check: identical to from-scratch compile@."
                | ds ->
                  incr divergent;
                  Fmt.epr "    check: DIVERGED from from-scratch compile:@.";
                  List.iter (fun d -> Fmt.epr "      %s@." d) ds
              end)
          paths;
        if !divergent > 0 then begin
          Fmt.epr "polaris: serve: %d of %d compiles diverged@." !divergent
            (List.length paths);
          exit 1
        end;
        if !failed > 0 then begin
          Fmt.epr "polaris: serve: %d of %d files failed@." !failed
            (List.length paths);
          exit 1
        end;
        if !incidents > 0 then exit 2)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Incremental recompilation: compile a sequence of sources in one \
          process, reusing every analysis whose program unit is unchanged")
    Term.(
      const go $ files $ config_term (const 8) $ check $ emit_flag
      $ strict_flag $ jobs_term $ explain_reuse_flag $ backend_term)

(* ----- daemon ----- *)

let socket_flag =
  Arg.(
    value
    & opt path_conv Serve.Daemon.default_socket
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket of the daemon")

let daemon_cmd =
  let d = Serve.Daemon.default_cfg in
  let store =
    Arg.(
      value
      & opt (some path_conv) d.d_store_dir
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Directory of the persistent analysis store; without it there \
             is no persistence, and facts are still shared across sessions \
             in memory")
  in
  let max_mb =
    Arg.(
      value
      & opt mb_conv d.d_max_cache_mb
      & info [ "max-cache-mb" ] ~docv:"MB"
          ~doc:
            "Size bound of the persistent store's live facts; \
             least-recently-used facts are evicted beyond it.  Flushes \
             append to the store file, so between compactions the file \
             can reach twice the bound")
  in
  let budget_steps =
    Arg.(
      value
      & opt count_conv d.d_config.budget_steps
      & info [ "budget-steps" ] ~docv:"N"
          ~doc:
            "Analysis fuel for each loop verdict: a verdict that exhausts \
             it is safe serial, and the request never stalls other sessions")
  in
  let log =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE"
          ~doc:"Append one JSON line per request (latency, reuse, incidents)")
  in
  let max_sessions =
    Arg.(
      value
      & opt count_conv d.d_max_sessions
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:
            "Admission cap: connections beyond N concurrent sessions are \
             shed with a Busy response")
  in
  let idle_timeout =
    Arg.(
      value
      & opt seconds_conv d.d_idle_timeout_s
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Evict sessions idle longer than this")
  in
  let flush_every =
    Arg.(
      value
      & opt count_conv d.d_flush_every
      & info [ "flush-every" ] ~docv:"N"
          ~doc:
            "Flush the persistent store after every N compile requests, \
             bounding what a crash can lose.  A flush appends the facts \
             added or replaced since the last one; the whole file is \
             rewritten only when it is missing, damaged or changed by \
             another writer, when it holds more than twice the live \
             facts, and at shutdown")
  in
  let flush_interval =
    Arg.(
      value
      & opt seconds_conv d.d_flush_interval_s
      & info [ "flush-interval" ] ~docv:"SECONDS"
          ~doc:
            "Also flush the persistent store after this many seconds with \
             unflushed work")
  in
  let max_pipeline =
    Arg.(
      value
      & opt count_conv d.d_max_pipeline
      & info [ "max-pipeline" ] ~docv:"N"
          ~doc:
            "Pipelined requests executed per connection per loop turn; an \
             aggressive pipeliner round-robins with the other sessions")
  in
  let go socket store max_mb config budget_steps log max_sessions
      idle_timeout flush_every flush_interval max_pipeline () backend =
    with_errors (fun () ->
        let cfg =
          { d with
            d_socket = socket;
            d_store_dir = store;
            d_max_cache_mb = max_mb;
            d_config = { config with budget_steps };
            d_backend = backend;
            d_log = log;
            d_max_sessions = max_sessions;
            d_idle_timeout_s = idle_timeout;
            d_flush_every = flush_every;
            d_flush_interval_s = flush_interval;
            d_max_pipeline = max_pipeline }
        in
        let report =
          Serve.Daemon.run ~signals:true
            ~on_ready:(fun () ->
              Fmt.pr "polaris daemon listening on %s@." socket;
              (match store with
              | Some d -> Fmt.pr "persistent store: %s (%d MB bound)@." d max_mb
              | None -> Fmt.pr "persistent store: disabled@.");
              Fmt.pr "admission: %d session(s), idle timeout %.0fs@."
                max_sessions idle_timeout;
              Fmt.pr "stop with SIGINT/SIGTERM or `polaris client --shutdown'@.")
            cfg
        in
        Fmt.pr "polaris daemon: served %d request(s) over %d session(s)@."
          report.r_requests report.r_sessions;
        if report.r_shed + report.r_evicted_slow + report.r_evicted_idle > 0
        then
          Fmt.pr
            "polaris daemon: shed %d connection(s), evicted %d slow / %d idle@."
            report.r_shed report.r_evicted_slow report.r_evicted_idle)
  in
  Cmd.v
    (Cmd.info "daemon"
       ~doc:
         "Run the compile daemon: a multi-client server whose sessions \
          share one persistent analysis store")
    Term.(
      const go $ socket_flag $ store $ max_mb $ config_term (const 8)
      $ budget_steps $ log $ max_sessions $ idle_timeout
      $ flush_every $ flush_interval $ max_pipeline $ jobs_term $ backend_term)

(* ----- client ----- *)

let client_cmd =
  let files =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE" ~doc:"Fortran source files to compile on the daemon")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Ask the daemon to verify each compile against a from-scratch one")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print the server's stats report (JSON)")
  in
  let shutdown =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the daemon to drain, flush and exit")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry each compile up to N times over fresh connections with \
             exponential backoff; transient failures (transport errors, \
             timeouts, Busy sheds) are retried, application errors are \
             final.  Compiles are deterministic, so the resend is \
             idempotent-safe.")
  in
  let timeout =
    Arg.(
      value
      & opt (some seconds_conv) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-request wall deadline: fail (and with --retries, retry) \
             instead of waiting forever on a stalled daemon")
  in
  let ping =
    Arg.(
      value & flag
      & info [ "ping" ]
          ~doc:"Probe the daemon's liveness (exit 0 iff it answers)")
  in
  let go socket files check baseline emit stats shutdown retries timeout ping
      backend =
    with_errors (fun () ->
        (* a daemon that sheds this connection may close it before the
           request is written: the failed write must be a transient
           "send failed" that --retries retries, not a SIGPIPE death *)
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        (* the name was resolved locally against the registry the daemon
           uses, so a typo exits 1 before a connection is even
           attempted; the wire carries the resolved name ("" = let the
           daemon pick its own default) *)
        let backend =
          Option.fold ~none:"" ~some:(fun b -> b.Backend.Registry.b_name) backend
        in
        if files = [] && not (stats || shutdown || ping) then begin
          Fmt.epr
            "polaris: client: nothing to do (no FILE, no --stats, no --ping, \
             no --shutdown)@.";
          exit 1
        end;
        let failed = ref 0 and divergent = ref 0 in
        let report_reply i path (r : Serve.Protocol.compile_reply) =
          Fmt.pr
            "[%d/%d] %-20s %d verdict(s)   shared reuse %5.1f%% (%d/%d)   \
             %.1f ms@."
            (i + 1) (List.length files) path
            (List.length r.co_verdicts)
            (100.0
            *. (if r.co_shared_lookups = 0 then 0.0
                else
                  float_of_int r.co_shared_hits
                  /. float_of_int r.co_shared_lookups))
            r.co_shared_hits r.co_shared_lookups r.co_wall_ms;
          if emit then print_string r.co_output;
          if r.co_check_divergences <> [] then begin
            incr divergent;
            Fmt.epr "    check: DIVERGED on the daemon:@.";
            List.iter (fun d -> Fmt.epr "      %s@." d) r.co_check_divergences
          end
        in
        let with_conn f =
          match Serve.Client.connect ?deadline_s:timeout socket with
          | Error m ->
            Fmt.epr "polaris: %s@." m;
            exit 1
          | Ok c ->
            Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
                f c)
        in
        if ping then
          with_conn (fun c ->
              match Serve.Client.ping c with
              | Ok () -> Fmt.pr "daemon at %s is alive@." socket
              | Error m ->
                Fmt.epr "polaris: ping: %s@." m;
                exit 1);
        (if files <> [] then
           if retries > 0 then
             (* recovery mode: every file compiles over its own
                connection(s) so one poisoned session costs one attempt *)
             List.iteri
               (fun i path ->
                 match Serve.Local.read_file path with
                 | exception Sys_error msg ->
                   incr failed;
                   Fmt.epr "[%d/%d] %-20s ERROR: %s@." (i + 1)
                     (List.length files) path msg
                 | source -> (
                   match
                     Serve.Client.compile_retry ~retries ?deadline_s:timeout
                       ~check ~baseline ~backend ~socket ~label:path
                       source
                   with
                   | Error msg ->
                     incr failed;
                     Fmt.epr "[%d/%d] %-20s ERROR: %s@." (i + 1)
                       (List.length files) path msg
                   | Ok r -> report_reply i path r))
               files
           else
             with_conn (fun c ->
                 List.iteri
                   (fun i path ->
                     match
                       Serve.Client.compile_path c ~check ~baseline ~backend
                         path
                     with
                     | Error msg ->
                       incr failed;
                       Fmt.epr "[%d/%d] %-20s ERROR: %s@." (i + 1)
                         (List.length files) path msg
                     | Ok r -> report_reply i path r)
                   files));
        (if stats || shutdown then
           with_conn (fun c ->
               (if stats then
                  match Serve.Client.stats c with
                  | Ok j -> Fmt.pr "%s@." j
                  | Error m ->
                    incr failed;
                    Fmt.epr "polaris: stats: %s@." m);
               if shutdown then
                 match Serve.Client.shutdown c with
                 | Ok () -> Fmt.pr "daemon is shutting down@."
                 | Error m ->
                   incr failed;
                   Fmt.epr "polaris: shutdown: %s@." m));
        if !divergent > 0 || !failed > 0 then exit 1)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Compile files on a running polaris daemon (thin client)")
    Term.(
      const go $ socket_flag $ files $ check $ baseline_flag $ emit_flag
      $ stats $ shutdown $ retries $ timeout $ ping $ backend_term)

(* ----- chaos ----- *)

let chaos_cmd =
  let seeds =
    Arg.(
      value & opt int 100
      & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeded fault plans to run")
  in
  let first_seed =
    Arg.(value & opt int 1 & info [ "first-seed" ] ~docv:"S" ~doc:"First seed")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"OUT.json"
          ~doc:"Write the sweep report (failures, incidents) as JSON")
  in
  let go seeds first_seed out () =
    with_errors (fun () ->
        let sources = Valid.Chaos.default_sources () in
        let sweep =
          Valid.Chaos.run_sweep ~procs_list:[ 4 ] ~first_seed ~n:seeds sources
        in
        Fmt.pr "%a" Valid.Chaos.pp_sweep sweep;
        (match out with
        | None -> ()
        | Some path ->
          let oc = open_out path in
          output_string oc (Valid.Chaos.sweep_json sweep);
          output_string oc "\n";
          close_out oc;
          Fmt.pr "chaos report written to %s@." path);
        if not (Valid.Chaos.sweep_ok sweep) then exit 1)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Fault-injection sweep: seeded exceptions, IR corruptions and \
          budget exhaustion must all be contained, attributed and \
          oracle-equivalent")
    Term.(const go $ seeds $ first_seed $ out $ jobs_term)

(* ----- registry listings ----- *)

let list_passes_cmd =
  Cmd.v
    (Cmd.info "list-passes"
       ~doc:
         "List every pass in the order the pipeline runs them, with the \
          analyses it consumes and its fault-containment behaviour")
    Term.(const (fun () -> Fmt.pr "%a" Core.Pass_id.pp_passes ()) $ const ())

let list_backends_cmd =
  Cmd.v
    (Cmd.info "list-backends" ~doc:"List the registered emission backends")
    Term.(const (fun () -> Fmt.pr "%a" Backend.Registry.pp_backends ()) $ const ())

(* ----- native ----- *)

(* numeric-aware stdout comparison: a native compiler's list-directed /
   printf formatting differs textually from the interpreter's, and an
   OpenMP reduction may reassociate, so tokens that parse as numbers
   compare under a relative tolerance; everything else (T/F logicals)
   must match exactly *)
let native_tokens s =
  let is_ws c = c = ' ' || c = '\n' || c = '\t' || c = '\r' in
  let toks = ref [] and b = Buffer.create 16 in
  let flush_tok () =
    if Buffer.length b > 0 then begin
      toks := Buffer.contents b :: !toks;
      Buffer.clear b
    end
  in
  String.iter (fun c -> if is_ws c then flush_tok () else Buffer.add_char b c) s;
  flush_tok ();
  List.rev !toks

let native_token_eq a b =
  match (float_of_string_opt a, float_of_string_opt b) with
  | Some x, Some y ->
    x = y
    || Float.abs (x -. y)
       <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  | _ -> String.equal a b

let read_process cmd =
  let ic = Unix.open_process_in cmd in
  let b = Buffer.create 256 in
  (try
     while true do
       Buffer.add_channel b ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (Buffer.contents b, status)

let native_cmd =
  let codes =
    Arg.(
      value
      & opt string "swim,tomcatv,arc2d"
      & info [ "codes" ] ~docv:"N1,N2"
          ~doc:"Comma-separated suite codes to check (or $(b,all))")
  in
  let backends =
    Arg.(
      value
      & opt string "f77-omp,c"
      & info [ "backends" ] ~docv:"B1,B2"
          ~doc:"Comma-separated backends to compile natively")
  in
  let go codes backends () =
    with_errors (fun () ->
        let names = String.split_on_char ',' codes |> List.map String.trim in
        let codes =
          if names = [ "all" ] then Suite.Registry.all
          else
            List.map
              (fun n ->
                match Suite.Registry.find n with
                | c -> c
                | exception Not_found ->
                  Fmt.epr "polaris: native: unknown suite code %s@." n;
                  exit 1)
              names
        in
        let backends =
          String.split_on_char ',' backends
          |> List.map (fun n ->
                 match Backend.Registry.find (String.trim n) with
                 | Ok b -> b
                 | Error m ->
                   Fmt.epr "polaris: native: %s@." m;
                   exit 1)
        in
        let tmp =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "polaris-native-%d" (Unix.getpid ()))
        in
        (try Unix.mkdir tmp 0o755
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let failures = ref 0 in
        let checked = ref 0 in
        List.iter
          (fun (b : Backend.Registry.t) ->
            (* the compile line mirrors the backend's own documentation:
               OpenMP on, and for Fortran, 8-byte reals so native
               arithmetic matches the interpreter's doubles *)
            let compiler, flags, libs =
              match b.b_family with
              | Backend.Registry.Fortran ->
                ( "gfortran",
                  "-O1 -fopenmp -ffixed-line-length-none -fdefault-real-8",
                  "" )
              | Backend.Registry.C -> ("cc", "-O1 -fopenmp", "-lm")
            in
            let available =
              Sys.command
                (Printf.sprintf "command -v %s >/dev/null 2>&1" compiler)
              = 0
            in
            if not available then
              (* a missing toolchain skips the lane cleanly: this check
                 is gated on the host, it is not a test failure *)
              Fmt.pr "native %-8s skipped (%s not found)@." b.b_name compiler
            else
              List.iter
                (fun (c : Suite.Code.t) ->
                  let t = Core.Pipeline.compile (Core.Config.polaris ()) c.source in
                  let src =
                    Filename.concat tmp
                      (Printf.sprintf "%s.%s" c.name b.b_ext)
                  in
                  let oc = open_out src in
                  output_string oc (b.b_emit t.program);
                  close_out oc;
                  let exe =
                    Filename.concat tmp
                      (Printf.sprintf "%s-%s.exe" c.name b.b_name)
                  in
                  let cmd =
                    Printf.sprintf "%s %s -o %s %s %s 2>%s.err" compiler flags
                      exe src libs exe
                  in
                  if Sys.command cmd <> 0 then begin
                    incr failures;
                    Fmt.pr "native %-8s %-8s FAIL (native compile; see %s.err)@."
                      b.b_name c.name exe
                  end
                  else begin
                    let out, _ = read_process (exe ^ " 2>&1") in
                    let oracle =
                      String.concat "\n"
                        (Machine.Interp.run t.program).Machine.Interp.output
                    in
                    let got = native_tokens out in
                    let want = native_tokens oracle in
                    incr checked;
                    if
                      List.length got = List.length want
                      && List.for_all2 native_token_eq got want
                    then
                      Fmt.pr "native %-8s %-8s ok (%d output tokens)@."
                        b.b_name c.name (List.length want)
                    else begin
                      incr failures;
                      Fmt.pr "native %-8s %-8s FAIL@.  oracle: %s@.  native: %s@."
                        b.b_name c.name oracle (String.trim out)
                    end
                  end)
                codes)
          backends;
        if !failures > 0 then begin
          Fmt.epr "polaris: native: %d check(s) failed@." !failures;
          exit 1
        end;
        if !checked = 0 then Fmt.pr "native: nothing checked (no compiler)@.")
  in
  Cmd.v
    (Cmd.info "native"
       ~doc:
         "Compile suite codes through a native toolchain (gfortran/cc with \
          OpenMP) and compare their runtime output against the \
          interpreter oracle; lanes whose compiler is absent are skipped \
          cleanly")
    Term.(
      const go $ codes $ backends $ jobs_term)

let () =
  let doc = "Polaris-style automatic parallelizer (ICPP'96 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "polaris" ~doc)
          [ compile_cmd; run_cmd; suite_cmd; validate_cmd; serve_cmd;
            daemon_cmd; client_cmd; chaos_cmd; list_passes_cmd;
            list_backends_cmd; native_cmd ]))
