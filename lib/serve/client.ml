(** The daemon client: connect, frame requests, decode responses —
    and survive a hostile network doing it.

    The client owns the filesystem side of a session — it reads source
    files and ships their {e text} to the daemon — so the daemon never
    depends on the client's working directory.  A file that cannot be
    read is a per-file failure: the session continues with the rest and
    the overall exit is non-zero, mirroring `polaris serve`.

    {b Resilience} (PR 7).  All transport goes through an {!io} record
    — the seam {!Chaosnet} substitutes to inject faults — and every
    receive honours an optional per-request wall deadline, so a stalled
    or dead daemon costs bounded time, never a hang.  {!compile_retry}
    layers recovery on top: each attempt is a {e fresh connection}
    (the daemon closes a session it rejected, and a torn frame poisons
    a connection's framing for good), failed attempts back off
    exponentially, and only {e transient} failures are retried —
    transport errors, timeouts, [Busy] sheds and [Rejected] frames.
    An application-level [Error_r] (bad source) is deterministic and
    final: retrying would recompute the same verdict.  Compiles are
    deterministic and side-effect-free per request, so resending one is
    idempotent-safe by construction. *)

(** The transport seam.  [io_send fd wire] writes the complete framed
    bytes; [io_read] has the [Unix.read] signature and feeds
    {!Protocol.recv}.  {!Chaosnet.io} wraps both with seeded faults. *)
type io = {
  io_send : Unix.file_descr -> string -> unit;
  io_read : Unix.file_descr -> Bytes.t -> int -> int -> int;
}

let plain_io = { io_send = Protocol.write_all; io_read = Unix.read }

type t = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* carry-over bytes between [recv] calls *)
  io : io;
  deadline_s : float option;  (* per-request wall deadline *)
}

(** Connect to the daemon at [socket].  Retries for up to [wait_s]
    (default 5s) while the socket does not exist yet or refuses — the
    common race when the daemon was just spawned.  [deadline_s] bounds
    every subsequent {!recv} on this connection. *)
let connect ?(wait_s = 5.0) ?(io = plain_io) ?deadline_s (socket : string) :
    (t, string) result =
  let deadline = Unix.gettimeofday () +. wait_s in
  let rec attempt () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Ok { fd; buf = Buffer.create 4096; io; deadline_s }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Unix.sleepf 0.05;
      attempt ()
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot connect to daemon at %s: %s" socket
           (Unix.error_message e))
  in
  attempt ()

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(** Send one request; the response arrives via {!recv}.  Pipelining is
    allowed: the daemon answers strictly in request order. *)
let send t (req : Protocol.request) =
  t.io.io_send t.fd (Protocol.frame (Protocol.encode_request req))

(** Receive the next response; [Error] on EOF, a protocol violation, or
    the connection deadline.  Every [Error] here is transport-level and
    therefore transient: a fresh connection may succeed. *)
let recv t : (Protocol.response, string) result =
  let deadline =
    Option.map (fun s -> Unix.gettimeofday () +. s) t.deadline_s
  in
  match Protocol.recv ~read:t.io.io_read ?deadline t.fd t.buf with
  | None -> Error "daemon closed the connection"
  | Some payload -> (
    match Protocol.decode_response payload with
    | r -> Ok r
    | exception Protocol.Malformed m -> Error ("malformed response: " ^ m))
  | exception Protocol.Malformed m -> Error ("broken connection: " ^ m)
  | exception Protocol.Timeout -> Error "request deadline exceeded"
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let roundtrip t req =
  match send t req with
  | () -> recv t
  | exception Protocol.Malformed m -> Error ("send failed: " ^ m)
  | exception Unix.Unix_error (e, _, _) ->
    Error ("send failed: " ^ Unix.error_message e)

(* ------------------------------------------------------------------ *)
(* Convenience requests                                                *)

(* the pass order is fixed, so a request never names a pipeline *)
let compile_request ~check ~baseline ~backend ~label source =
  Protocol.Compile
    { cr_label = label; cr_source = source; cr_check = check;
      cr_baseline = baseline; cr_pipeline = ""; cr_backend = backend }

let compile_source t ?(check = false) ?(baseline = false) ?(backend = "")
    ~label source : (Protocol.compile_reply, string) result =
  match
    roundtrip t (compile_request ~check ~baseline ~backend ~label source)
  with
  | Ok (Protocol.Compiled r) -> Ok r
  | Ok (Protocol.Error_r m) -> Error m
  | Ok Protocol.Busy -> Error "daemon busy (admission cap reached)"
  | Ok (Protocol.Rejected m) -> Error ("rejected: " ^ m)
  | Ok _ -> Error "unexpected response kind"
  | Error m -> Error m

(** Read [path] locally and compile it on the daemon.  An unreadable
    path is a per-file [Error], never a session abort. *)
let compile_path t ?check ?baseline ?backend (path : string) :
    (Protocol.compile_reply, string) result =
  match Local.read_file path with
  | exception Sys_error msg -> Error msg
  | source -> compile_source t ?check ?baseline ?backend ~label:path source

let stats t : (string, string) result =
  match roundtrip t Protocol.Stats with
  | Ok (Protocol.Stats_reply j) -> Ok j
  | Ok (Protocol.Error_r m) -> Error m
  | Ok _ -> Error "unexpected response kind"
  | Error m -> Error m

(** Liveness probe: true iff the daemon answered [Pong]. *)
let ping t : (unit, string) result =
  match roundtrip t Protocol.Ping with
  | Ok Protocol.Pong -> Ok ()
  | Ok _ -> Error "unexpected response kind"
  | Error m -> Error m

(** Ask the daemon to drain, flush and exit. *)
let shutdown t : (unit, string) result =
  match roundtrip t Protocol.Shutdown with
  | Ok Protocol.Bye -> Ok ()
  | Ok (Protocol.Error_r m) -> Error m
  | Ok _ -> Error "unexpected response kind"
  | Error m -> Error m

(* ------------------------------------------------------------------ *)
(* Retry                                                               *)

(* exponential backoff, capped: 50ms, 100ms, 200ms, ... 1s, 1s, ... *)
let backoff_s attempt = Float.min 1.0 (0.05 *. Float.pow 2.0 (float_of_int (attempt - 1)))

(** [compile_retry ~socket ~label source]: compile with recovery.  Up
    to [1 + retries] attempts, each over a fresh connection, backing
    off exponentially between them; [deadline_s] bounds each attempt's
    wait for the response.  Transient failures (connect failure,
    transport error, deadline, [Busy], [Rejected]) are retried;
    [Compiled] and [Error_r] are final.  Determinism makes the resend
    safe: a retried compile yields a byte-identical result. *)
let compile_retry ?(retries = 0) ?deadline_s ?io ?(connect_wait_s = 5.0)
    ?(check = false) ?(baseline = false) ?(backend = "") ~socket ~label source
    : (Protocol.compile_reply, string) result =
  let attempts = 1 + max 0 retries in
  let rec go n last_err =
    if n > attempts then
      Error
        (Printf.sprintf "giving up after %d attempt%s: %s" attempts
           (if attempts = 1 then "" else "s")
           last_err)
    else begin
      if n > 1 then Unix.sleepf (backoff_s (n - 1));
      match connect ~wait_s:connect_wait_s ?io ?deadline_s socket with
      | Error m -> go (n + 1) m
      | Ok t ->
        let verdict =
          let req = compile_request ~check ~baseline ~backend ~label source in
          match roundtrip t req with
          | Ok (Protocol.Compiled r) -> `Final (Ok r)
          | Ok (Protocol.Error_r m) -> `Final (Error m)  (* deterministic *)
          | Ok Protocol.Busy -> `Transient "daemon busy (admission cap reached)"
          | Ok (Protocol.Rejected m) -> `Transient ("rejected: " ^ m)
          | Ok _ -> `Transient "unexpected response kind"
          | Error m -> `Transient m
        in
        close t;
        (match verdict with
        | `Final r -> r
        | `Transient m -> go (n + 1) m)
    end
  in
  go 1 "no attempt made"
