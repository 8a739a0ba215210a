(** The local (in-process) serve session: shared by `polaris serve`
    and the daemon's request handler.

    One entry point, {!compile_source}, does everything a compile
    request needs: an incremental compile through {!Core.Incremental}
    (whose pipeline bounds each loop verdict by the configuration's
    analysis budget), the per-request shared-cache accounting, the
    optional from-scratch verification, and the sid-masked verdict
    rendering the protocol carries.  Pulling this
    out of [bin/polaris_cli.ml] makes the per-file failure behaviour
    testable: a session must {e contain} a bad file — report it, keep
    compiling the rest, and exit non-zero at the end — instead of
    aborting on the first unreadable path. *)

(** Everything one compile request produced. *)
type compiled = {
  lc_result : Core.Incremental.result;
  lc_output : string;
      (** the emitted output source in the requested backend; equals
          [lc_result.outcome.oc_output] for the default [f77] backend *)
  lc_verdicts : string list;       (** sid-masked, one line per loop *)
  lc_shared_hits : int;            (** persistent-cache hits of this compile *)
  lc_shared_lookups : int;
  lc_wall_s : float;
  lc_check_divergences : string list;
      (** empty unless [check] was set and the compile diverged *)
}

let render_verdicts (o : Core.Incremental.outcome) : string list =
  List.map
    (fun (v : Core.Incremental.verdict) ->
      Printf.sprintf "%s DO %s %s%s -- %s" v.v_unit v.v_index
        (if v.v_parallel then "PARALLEL" else "serial")
        (if v.v_speculative then " (speculative)" else "")
        v.v_reason)
    o.oc_verdicts

(* (hits, lookups) of the persistent (shared) caches in one compile's
   counter delta *)
let shared_counts (st : Core.Incremental.stats) =
  let shared = Util.Cachectl.persistent_names () in
  List.fold_left
    (fun (h, l) (n, hits, misses) ->
      if List.mem n shared then (h + hits, l + hits + misses) else (h, l))
    (0, 0) st.st_tracked

(** Compile [source] incrementally (warm caches), optionally verifying
    against a from-scratch compile.  [config]'s budget bounds each loop
    verdict's dependence analysis — exhaustion degrades the verdict to
    safe serial, it never faults the session.  [backend] selects the
    emission target of [lc_output] (default: the f77 unparser output the
    incremental engine already rendered); check divergence detection
    always compares the engine's canonical f77 output, so the check
    verdict is backend-independent.

    The caches registered without [~persist] (the [compare.*] proof
    tables) are emptied first: a session keeps only the persistent
    facts from one compile to the next, so its resident tables grow
    with the distinct loops it has seen, not with every proof it has
    run.  The clear sits here, not in {!Core.Incremental.compile}:
    [test incremental] requires an edited recompile to reuse more than
    a scratch compile of the same source, and with the tables cleared
    APPSP's does not. *)
let compile_source ?strict ?(check = false)
    ?(backend = Backend.Registry.default) (config : Core.Config.t)
    (source : string) : compiled =
  Util.Cachectl.clear_transient ();
  let t0 = Unix.gettimeofday () in
  let result = Core.Incremental.compile ?strict config source in
  let lc_wall_s = Unix.gettimeofday () -. t0 in
  let lc_shared_hits, lc_shared_lookups = shared_counts result.stats in
  let lc_check_divergences =
    if not check then []
    else
      let fresh = Core.Incremental.scratch ?strict config source in
      Core.Incremental.diverges ~incremental:result.outcome
        ~scratch:fresh.outcome
  in
  let lc_output =
    if backend.Backend.Registry.b_name = Backend.Registry.default.b_name then
      result.outcome.oc_output
    else backend.b_emit result.pipeline.Core.Pipeline.program
  in
  { lc_result = result;
    lc_output;
    lc_verdicts = render_verdicts result.outcome;
    lc_shared_hits; lc_shared_lookups; lc_wall_s; lc_check_divergences }

(* ------------------------------------------------------------------ *)
(* File-based sessions (`polaris serve`)                               *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

(** One file of a serve session.  A path that cannot be read (or whose
    source fails to parse) is a {e per-file} error: the session carries
    on with the remaining files and the caller reports a non-zero exit
    at the end.  Compiler-internal faults still propagate — they are
    bugs, not inputs. *)
let compile_path ?strict ?check ?backend (config : Core.Config.t)
    (path : string) : (compiled, string) result =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | source -> (
    match compile_source ?strict ?check ?backend config source with
    | c -> Ok c
    | exception Frontend.Lexer.Error m -> Error (path ^ ": lexical error: " ^ m)
    | exception Frontend.Parser.Error m -> Error (path ^ ": syntax error: " ^ m))
