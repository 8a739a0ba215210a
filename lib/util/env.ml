(** The single parse site for every [POLARIS_*] environment variable.

    Historically each subsystem read its own variable ad hoc —
    [Pool] parsed [POLARIS_JOBS] (silently defaulting on garbage),
    [Cachectl] string-compared [POLARIS_NO_CACHE] and
    [POLARIS_CACHE_DEBUG] against ["1"].  Every knob is now parsed,
    validated and defaulted here, once, at module initialization;
    malformed values print a warning on stderr and fall back to the
    default instead of being silently swallowed.  [Core.Config]
    documents the knobs and re-exports the parsed values; nothing else
    in the tree may call [Sys.getenv] for a [POLARIS_*] name.

    The [parse_*] functions are pure and exposed so the unit tests can
    pin the validation behaviour without touching the process
    environment. *)

(** Hard ceiling on a domain count: the compile job count and the
    runtime processor count alike.  {!Pool} sizes its per-slot cache
    shard arrays with it. *)
let max_jobs = 64

(** [parse_jobs raw]: a domain count in [1 .. max_jobs], for
    [POLARIS_JOBS] and [POLARIS_RUNTIME_PROCS].  Values above the
    ceiling clamp (a big [-j] is a wish, not an error); zero, negative
    and non-numeric values are rejected. *)
let parse_jobs raw : (int, string) result =
  match int_of_string_opt (String.trim raw) with
  | None -> Error (Printf.sprintf "expected an integer, got %S" raw)
  | Some n when n < 1 ->
    Error (Printf.sprintf "expected a domain count >= 1, got %d" n)
  | Some n -> Ok (if n > max_jobs then max_jobs else n)

(** [parse_flag raw]: a boolean knob.  Accepts 1/0, true/false, yes/no,
    on/off (case-insensitive); anything else is rejected. *)
let parse_flag raw : (bool, string) result =
  match String.lowercase_ascii (String.trim raw) with
  | "1" | "true" | "yes" | "on" -> Ok true
  | "0" | "false" | "no" | "off" -> Ok false
  | _ ->
    Error
      (Printf.sprintf "expected a boolean (1/0/true/false/yes/no/on/off), got %S"
         raw)

(** [parse_mb raw]: a size in megabytes, [> 0].  Used for the
    persistent-store bound [POLARIS_MAX_CACHE_MB]; zero, negative and
    non-numeric values are rejected (a store bounded at 0 MB would
    silently evict everything — if you want the store off, unset
    [POLARIS_CACHE_DIR]). *)
let parse_mb raw : (int, string) result =
  match int_of_string_opt (String.trim raw) with
  | None -> Error (Printf.sprintf "expected an integer (megabytes), got %S" raw)
  | Some n when n < 1 ->
    Error (Printf.sprintf "expected a size >= 1 MB, got %d" n)
  | Some n -> Ok n

(** [parse_path raw]: a filesystem path — any non-empty string after
    trimming.  Used for [POLARIS_CACHE_DIR] and [POLARIS_SOCKET];
    whitespace-only values are rejected rather than producing a daemon
    that listens on "". *)
let parse_path raw : (string, string) result =
  let t = String.trim raw in
  if t = "" then Error "expected a non-empty path" else Ok t

(** [parse_count raw]: a positive integer, unclamped.  Used for the
    daemon's admission and flush-cadence knobs ([POLARIS_MAX_SESSIONS],
    [POLARIS_FLUSH_EVERY]); zero would mean "admit nothing" / "flush on
    every request boundary including none", which is never what a
    misconfigured deployment wants silently. *)
let parse_count raw : (int, string) result =
  match int_of_string_opt (String.trim raw) with
  | None -> Error (Printf.sprintf "expected an integer, got %S" raw)
  | Some n when n < 1 -> Error (Printf.sprintf "expected a count >= 1, got %d" n)
  | Some n -> Ok n

(** [parse_seconds raw]: a strictly positive duration in seconds
    (fractions allowed).  Used for [POLARIS_IDLE_TIMEOUT_S] and
    [POLARIS_FLUSH_INTERVAL_S]; zero and negative values are rejected —
    a zero idle timeout would evict every session at the first poll. *)
let parse_seconds raw : (float, string) result =
  match float_of_string_opt (String.trim raw) with
  | None -> Error (Printf.sprintf "expected a duration in seconds, got %S" raw)
  | Some s when not (Float.is_finite s) || s <= 0.0 ->
    Error (Printf.sprintf "expected a duration > 0, got %s" (String.trim raw))
  | Some s -> Ok s

let is_name_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '-'

let is_name s = s <> "" && String.for_all is_name_char s

(** [parse_pipeline_spec raw]: the {e syntax} of a pipeline spec — a
    preset name, or [custom:pass1,pass2,...] with non-empty pass names.
    Resolution against the pass registry (which lives above [Util])
    happens at the use site via [Core.Registry.parse]; this layer only
    rejects strings that cannot be any pipeline, so a typo warns here
    instead of surfacing as a confusing registry error. *)
let parse_pipeline_spec raw : (string, string) result =
  let t = String.trim raw in
  if t = "" then Error "expected a pipeline name or custom:p1,p2,..."
  else
    match String.index_opt t ':' with
    | None ->
      if is_name t then Ok t
      else Error (Printf.sprintf "expected a pipeline name, got %S" t)
    | Some i ->
      let head = String.sub t 0 i in
      let tail = String.sub t (i + 1) (String.length t - i - 1) in
      if String.lowercase_ascii head <> "custom" then
        Error (Printf.sprintf "expected 'custom:...', got %S" t)
      else
        let passes =
          List.map String.trim (String.split_on_char ',' tail)
          |> List.filter (fun s -> s <> "")
        in
        if passes = [] then Error "custom: pipeline lists no passes"
        else if List.for_all is_name passes then Ok t
        else Error (Printf.sprintf "malformed pass name in %S" t)

(** [parse_backend_name raw]: the syntax of a backend name (the
    registry in [lib/backend] resolves it).  Lower-cased, so
    [POLARIS_BACKEND=F77-OMP] works. *)
let parse_backend_name raw : (string, string) result =
  let t = String.lowercase_ascii (String.trim raw) in
  if is_name t then Ok t
  else Error (Printf.sprintf "expected a backend name, got %S" raw)

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

(* option-valued knobs: absence is meaningful (feature off), so the
   default is None and a malformed value warns and stays off *)
let read_opt var parse =
  read var ~default:None (fun raw -> Result.map Option.some (parse raw))

(** Parsed [POLARIS_CACHE_DIR]: directory of the daemon's persistent
    analysis store ([None] = persistence off). *)
let cache_dir : string option = read_opt "POLARIS_CACHE_DIR" parse_path

(** Parsed [POLARIS_MAX_CACHE_MB]: size bound of the persistent store
    in megabytes (default 64). *)
let max_cache_mb : int = read "POLARIS_MAX_CACHE_MB" ~default:64 parse_mb

(** Parsed [POLARIS_SOCKET]: unix-domain socket path of the compile
    daemon ([None] = the CLI's default path). *)
let socket : string option = read_opt "POLARIS_SOCKET" parse_path

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

(** Parsed [POLARIS_PIPELINE]: default pass pipeline for compiles that
    don't say otherwise ([None] = the built-in [thorough] preset).
    Syntax-checked here; resolved against the pass registry at the use
    site, which warns and falls back to the default on unknown
    names. *)
let pipeline : string option = read_opt "POLARIS_PIPELINE" parse_pipeline_spec

(** Parsed [POLARIS_BACKEND]: default emission backend ([None] = f77).
    Same split as [pipeline]: syntax here, registry resolution at the
    use site. *)
let backend : string option = read_opt "POLARIS_BACKEND" parse_backend_name

(** Parsed [POLARIS_MAX_SESSIONS]: the daemon's concurrent-session
    admission cap; connections beyond it are shed with a [Busy]
    response (default 64). *)
let max_sessions : int = read "POLARIS_MAX_SESSIONS" ~default:64 parse_count

(** Parsed [POLARIS_IDLE_TIMEOUT_S]: seconds of per-connection
    inactivity after which the daemon evicts the session (default
    600 s). *)
let idle_timeout_s : float =
  read "POLARIS_IDLE_TIMEOUT_S" ~default:600.0 parse_seconds

(** Parsed [POLARIS_FLUSH_EVERY]: flush the persistent store to disk
    after this many compile requests, bounding what a SIGKILL can lose
    (default 64). *)
let flush_every : int = read "POLARIS_FLUSH_EVERY" ~default:64 parse_count

(** Parsed [POLARIS_FLUSH_INTERVAL_S]: also flush the persistent store
    after this many seconds with unflushed work (default 30 s). *)
let flush_interval_s : float =
  read "POLARIS_FLUSH_INTERVAL_S" ~default:30.0 parse_seconds
