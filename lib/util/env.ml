(** The process-wide [POLARIS_*] switches, and the validators that
    every setting parses through.

    Four variables reach no command line, so they are read here, once,
    at module initialization: [POLARIS_JOBS] and [POLARIS_RUNTIME_PROCS]
    (the ambient compile and runtime domain counts, which CI sets for
    the whole test runner), [POLARIS_NO_CACHE] and
    [POLARIS_CACHE_DEBUG].  A malformed value prints a warning on
    stderr and falls back to the default, so the environment never
    turns a working invocation into a failing one.  Nothing else in the
    tree may call [Sys.getenv].  Every other setting is a command-line
    flag and nothing else.

    The [parse_*] functions are pure.  The CLI uses them as its flags'
    Cmdliner converters, so a flag accepts exactly what the matching
    switch accepts, and an out-of-range flag is a usage error (exit
    124) before any work starts. *)

(** Hard ceiling on a domain count: the compile job count and the
    runtime processor count alike.  {!Pool} sizes its per-slot cache
    shard arrays with it. *)
let max_jobs = 64

(** [parse_jobs raw]: a domain count in [1 .. max_jobs], for
    [POLARIS_JOBS], [POLARIS_RUNTIME_PROCS], [-j] and [--real-procs].
    Values above the ceiling clamp (a big [-j] is a wish, not an
    error); zero, negative and non-numeric values are rejected. *)
let parse_jobs raw : (int, string) result =
  match int_of_string_opt (String.trim raw) with
  | None -> Error (Printf.sprintf "expected an integer, got %S" raw)
  | Some n when n < 1 ->
    Error (Printf.sprintf "expected a domain count >= 1, got %d" n)
  | Some n -> Ok (if n > max_jobs then max_jobs else n)

(** [parse_flag raw]: a boolean switch.  Accepts 1/0, true/false,
    yes/no, on/off (case-insensitive); anything else is rejected. *)
let parse_flag raw : (bool, string) result =
  match String.lowercase_ascii (String.trim raw) with
  | "1" | "true" | "yes" | "on" -> Ok true
  | "0" | "false" | "no" | "off" -> Ok false
  | _ ->
    Error
      (Printf.sprintf "expected a boolean (1/0/true/false/yes/no/on/off), got %S"
         raw)

(** [parse_mb raw]: a size in megabytes, [> 0], for the daemon's
    [--max-cache-mb].  Zero, negative and non-numeric values are
    rejected: a store bounded at 0 MB would silently evict everything
    (to run without a store, omit [--store]). *)
let parse_mb raw : (int, string) result =
  match int_of_string_opt (String.trim raw) with
  | None -> Error (Printf.sprintf "expected an integer (megabytes), got %S" raw)
  | Some n when n < 1 ->
    Error (Printf.sprintf "expected a size >= 1 MB, got %d" n)
  | Some n -> Ok n

(** [parse_path raw]: a filesystem path, any non-empty string after
    trimming, for the daemon's [--socket] and [--store].
    Whitespace-only values are rejected rather than producing a daemon
    that listens on "". *)
let parse_path raw : (string, string) result =
  let t = String.trim raw in
  if t = "" then Error "expected a non-empty path" else Ok t

(** [parse_count raw]: a positive integer, unclamped, for the simulated
    processor count [-p] and the daemon's [--max-sessions],
    [--flush-every] and [--max-pipeline].  Zero is rejected: it would
    mean "admit nothing" or "answer nothing", which is never what a
    misconfigured deployment wants silently. *)
let parse_count raw : (int, string) result =
  match int_of_string_opt (String.trim raw) with
  | None -> Error (Printf.sprintf "expected an integer, got %S" raw)
  | Some n when n < 1 -> Error (Printf.sprintf "expected a count >= 1, got %d" n)
  | Some n -> Ok n

(** [parse_seconds raw]: a strictly positive duration in seconds
    (fractions allowed), for the daemon's [--idle-timeout] and
    [--flush-interval] and the client's [--timeout].  Zero, negative
    and non-finite values are rejected: a zero idle timeout would evict
    every session at the first poll. *)
let parse_seconds raw : (float, string) result =
  match float_of_string_opt (String.trim raw) with
  | None -> Error (Printf.sprintf "expected a duration in seconds, got %S" raw)
  | Some s when not (Float.is_finite s) || s <= 0.0 ->
    Error (Printf.sprintf "expected a duration > 0, got %s" (String.trim raw))
  | Some s -> Ok s

let read var ~default parse =
  match Sys.getenv_opt var with
  | None -> default
  | Some raw -> (
    match parse raw with
    | Ok v -> v
    | Error msg ->
      Printf.eprintf "polaris: warning: ignoring %s=%s: %s\n%!" var raw msg;
      default)

(** Parsed [POLARIS_JOBS] (default 1: parallelism is opt-in). *)
let jobs : int = read "POLARIS_JOBS" ~default:1 parse_jobs

(** Parsed [POLARIS_NO_CACHE] (default false: caches on). *)
let no_cache : bool = read "POLARIS_NO_CACHE" ~default:false parse_flag

(** Parsed [POLARIS_CACHE_DEBUG] (default false). *)
let cache_debug : bool = read "POLARIS_CACHE_DEBUG" ~default:false parse_flag

(** Parsed [POLARIS_RUNTIME_PROCS]: how many OCaml domains
    [Machine.Parexec] uses to execute DOALL/speculative loops for real
    (default: the host's recommended domain count capped at the modeled
    machine size, 8).  A separate setting from [POLARIS_JOBS]: this one
    sizes the {!Pool} batches that run parallel regions, that one sizes
    the compiler's batches. *)
let runtime_procs : int =
  read "POLARIS_RUNTIME_PROCS"
    ~default:(max 1 (min 8 (Domain.recommended_domain_count ())))
    parse_jobs
