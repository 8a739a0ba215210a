(** The Polaris compile daemon: a long-lived, multi-client compilation
    server over a unix-domain socket.

    Architecture (DESIGN.md §9): one server loop multiplexes every
    client session with [Unix.select]; requests are decoded from
    length-prefixed frames ({!Protocol}) and executed {e one at a time,
    in arrival order} — the determinism anchor — while each compile
    internally fans its dependence analysis and validation across the
    {!Util.Pool} worker domains ([-j N]).

    The analysis facts live in
    the process-wide content-addressed caches, so every session warms
    every other session; with a {!Store} attached ([--store]) the
    persistent subset also survives daemon restarts, bounded by LRU
    eviction and guarded by integrity checks.  Above them, each daemon
    answers a request it has already answered from its reply memo
    ({!Memo}), without compiling.

    Fault containment is per request and per session: a compile that
    faults (bad source, contained pass incident, exhausted budget)
    answers with an error or degraded-but-sound result and the session
    lives on; a session that breaks the framing protocol is closed
    alone; SIGINT/SIGTERM answer the requests already sent, flush the
    store and return cleanly.  One greedy client cannot starve the fleet:
    every loop verdict draws its own analysis budget from the request
    configuration ([--budget-steps]), so a pathological source degrades
    its own verdicts to serial and nothing else.

    {b Overload protection} (PR 7).  Responses are never written
    blocking: each connection owns a bounded outgoing byte queue
    drained through the select loop's write set, so a stalled reader
    wedges {e its own} queue, not the server — when the queue overflows
    [max_wbuf] the session is evicted.  Admission is controlled: at
    [max_sessions] open sessions a new connection is shed with one
    {!Protocol.Busy} frame and closed (nothing attempted, retry
    later); a connection buffering more than [max_rbuf] unparsed
    request bytes, or idle longer than [idle_timeout_s], is evicted.
    At most [max_pipeline] pipelined requests are executed per
    connection per loop turn, round-robining the sessions.

    {b Crash safety.}  The store is flushed every [flush_every] compile
    requests — {e before} the triggering response is queued, so a
    client that has seen reply N knows every fact up to the last flush
    boundary has reached the kernel — and again after
    [flush_interval_s] seconds with unflushed work.  A flush appends
    what changed and only rarely rewrites the file ({!Store}); a
    SIGKILL mid-append leaves a torn tail that the next open drops,
    and it holds no fact a client saw answered.  A SIGKILL therefore
    loses at most one flush window.  A graceful shutdown compacts the
    store, so a restart loads a minimal file.  A pidfile
    ([socket].pid) enforces single-instance discipline: a new daemon
    refuses to stomp a live daemon's socket ({!Already_running}) but
    silently recovers a stale one (dead pid — the SIGKILL case). *)

type cfg = {
  d_socket : string;            (** unix-domain socket path *)
  d_store_dir : string option;  (** persistent store directory (None = off) *)
  d_max_cache_mb : int;
  d_config : Core.Config.t;
      (** the request configuration: capabilities and the per-verdict
          analysis budget ([budget_steps]) *)
  d_backend : Backend.Registry.t option;
      (** default emission backend ([None] = the f77 unparser) *)
  d_log : string option;        (** JSON-lines server log path (appended) *)
  d_poll_s : float;             (** select timeout: stop-flag latency bound *)
  (* overload protection *)
  d_max_sessions : int;         (** admission cap; beyond it: [Busy] + close *)
  d_idle_timeout_s : float;     (** evict sessions idle longer than this *)
  d_max_rbuf : int;             (** per-connection unparsed-request byte cap *)
  d_max_wbuf : int;             (** per-connection queued-response byte cap *)
  d_max_pipeline : int;         (** requests executed per connection per turn *)
  d_sndbuf : int option;        (** SO_SNDBUF for client fds (tests shrink it) *)
  (* crash safety *)
  d_flush_every : int;          (** store flush cadence in compile requests *)
  d_flush_interval_s : float;   (** store flush cadence in seconds *)
}

(** The socket a daemon listens on when [--socket] is not given: a
    per-user path under the temp dir. *)
let default_socket =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "polaris-%d.sock" (Unix.getuid ()))

(** The defaults of every daemon setting, and the only source of the
    [polaris daemon] flags' defaults. *)
let default_cfg =
  { d_socket = default_socket;
    d_store_dir = None;
    d_max_cache_mb = 64;
    d_config = Core.Config.polaris ~procs:8 ();
    d_backend = None;
    d_log = None;
    d_poll_s = 0.1;
    d_max_sessions = 64;
    d_idle_timeout_s = 600.0;
    d_max_rbuf = Protocol.max_frame + Protocol.header_len;
    d_max_wbuf = Protocol.max_frame + Protocol.header_len;
    d_max_pipeline = 32;
    d_sndbuf = None;
    d_flush_every = 64;
    d_flush_interval_s = 30.0 }

(** What {!run} hands back when the loop ends. *)
type report = {
  r_graceful : bool;      (** drained and flushed (signal or Shutdown) *)
  r_requests : int;
  r_sessions : int;
  r_shed : int;           (** connections refused with [Busy] *)
  r_evicted_slow : int;   (** sessions evicted for an overfull write queue *)
  r_evicted_idle : int;   (** sessions evicted by the idle timeout *)
  r_max_pending : int;    (** high-water mark of queued response bytes *)
}

(* ------------------------------------------------------------------ *)
(* Single-instance discipline: the pidfile                              *)

exception Already_running of int * string
(** [(pid, socket)]: a live daemon owns the socket; refusing to stomp
    it.  The CLI reports this as a clean one-line error. *)

let pidfile_path socket = socket ^ ".pid"

type liveness =
  | Live of int   (** pidfile names a process that is alive *)
  | Stale of int  (** pidfile names a dead process (crash leftovers) *)
  | Absent        (** no pidfile (or unreadable garbage — also stale) *)

(** Probe the pidfile guarding [socket].  [Live] means a daemon owns
    the socket right now; [Stale] means the previous owner died without
    cleanup (e.g. SIGKILL) and its socket and pidfile are safe to
    recover.  Garbage pidfile contents are treated as [Absent]: there
    is nothing trustworthy to refuse over. *)
let probe ~socket : liveness =
  let path = pidfile_path socket in
  match open_in path with
  | exception Sys_error _ -> Absent
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    close_in_noerr ic;
    (match int_of_string_opt (String.trim line) with
    | None -> Absent
    | Some pid -> (
      match Unix.kill pid 0 with
      | () -> Live pid
      | exception Unix.Unix_error (Unix.ESRCH, _, _) -> Stale pid
      | exception Unix.Unix_error (Unix.EPERM, _, _) -> Live pid
      | exception Unix.Unix_error _ -> Stale pid))

let write_pidfile socket =
  let path = pidfile_path socket in
  let oc = open_out path in
  output_string oc (string_of_int (Unix.getpid ()));
  output_char oc '\n';
  close_out oc

let remove_pidfile socket =
  try Sys.remove (pidfile_path socket) with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)

type conn = {
  c_fd : Unix.file_descr;
  c_buf : Buffer.t;          (* bytes received, frames not yet peeled *)
  c_outq : string Queue.t;   (* framed responses not yet (fully) written *)
  mutable c_out_off : int;   (* bytes of the queue head already written *)
  mutable c_out_bytes : int; (* total bytes pending across the queue *)
  mutable c_last_active : float;  (* last read or write progress *)
  mutable c_closing : bool;  (* flush the queue, then close; no more reads *)
  c_session : Metrics.session;
  mutable c_open : bool;
}

let close_conn c =
  if c.c_open then begin
    c.c_open <- false;
    try Unix.close c.c_fd with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Request execution                                                   *)

type state = {
  st_cfg : cfg;
  st_store : Store.t option;
  st_sv : Metrics.server;
  st_memo : Memo.t;  (* this daemon's replies, for repeated requests *)
  mutable st_sessions : Metrics.session list;  (* every session ever *)
  mutable st_stop : bool;  (* graceful shutdown requested *)
  mutable st_since_flush : int;   (* compile requests since the last flush *)
  mutable st_last_flush : float;
  st_log : out_channel option;
}

let log_line st json =
  match st.st_log with
  | None -> ()
  | Some oc ->
    output_string oc json;
    output_char oc '\n';
    flush oc

let stats_json st =
  Metrics.server_json ~now:(Unix.gettimeofday ()) st.st_sv st.st_sessions
    ~memo:(Memo.stats_json st.st_memo)
    (Option.map Store.stats_json st.st_store)

(* what the store's latest flush or compaction wrote, and its cost *)
let log_flush st store ~reason =
  let f = Store.last_flush store in
  let open Valid.Trace.Json in
  log_line st
    (obj
       [ ("event", str "flush");
         ("reason", str reason);
         ("entries", int (Store.entry_count store));
         ("mode", str (Store.mode_name f.fl_mode));
         ("bytes", int f.fl_bytes);
         ("ms", float f.fl_ms) ])

(* flush the store and reset the cadence counters; every flush is
   counted and logged so the crash window is observable *)
let flush_store st ~reason =
  match st.st_store with
  | None -> ()
  | Some store ->
    Store.flush store;
    st.st_since_flush <- 0;
    st.st_last_flush <- Unix.gettimeofday ();
    st.st_sv.sv_flushes <- st.st_sv.sv_flushes + 1;
    log_flush st store ~reason

(* per-request configuration/backend resolution: a bad name in a
   request is an application error ([Error_r] — deterministic, not
   retryable), never a daemon fault.  The pass order is fixed, so any
   pipeline name is refused; a baseline request keeps the daemon's
   budget; "" picks the daemon's default backend *)
let resolve_config st (c : Protocol.compile_req) :
    (Core.Config.t, string) result =
  if c.cr_pipeline <> "" then
    Error
      (Printf.sprintf "unknown pipeline '%s': the pass order is fixed"
         c.cr_pipeline)
  else
    let d = st.st_cfg.d_config in
    if c.cr_baseline then
      Ok
        { (Core.Config.baseline ~procs:d.procs ()) with
          budget_steps = d.budget_steps }
    else Ok d

let resolve_backend st (c : Protocol.compile_req) :
    (Backend.Registry.t, string) result =
  if c.cr_backend = "" then
    Ok (Option.value st.st_cfg.d_backend ~default:Backend.Registry.default)
  else Backend.Registry.find c.cr_backend

(* the reply of one compile *)
let reply_of ~label (compiled : Local.compiled) : Protocol.compile_reply =
  let r = compiled.lc_result in
  { co_label = label;
    co_output = compiled.lc_output;
    co_verdicts = compiled.lc_verdicts;
    co_incidents = List.length r.pipeline.incidents;
    co_reuse_rate = r.stats.st_reuse_rate;
    co_shared_hits = compiled.lc_shared_hits;
    co_shared_lookups = compiled.lc_shared_lookups;
    co_wall_ms = 1000.0 *. compiled.lc_wall_s;
    co_check_divergences = compiled.lc_check_divergences }

(* answer one compile request, from the reply memo or by compiling, and
   fold its counters into the session and server metrics; the flag says
   whether the memo answered *)
let handle_compile st (sess : Metrics.session) (c : Protocol.compile_req) :
    Protocol.response * bool =
  match (resolve_config st c, resolve_backend st c) with
  | Error m, _ | _, Error m -> (Protocol.Error_r m, false)
  | Ok config, Ok backend -> (
    let t0 = Unix.gettimeofday () in
    let compile () =
      Local.compile_source ~check:c.cr_check ~backend config c.cr_source
    in
    (* a check request asks for a compile; with the caches off the memo
       would be the one cache left on *)
    let key =
      if c.cr_check || not config.caches then None
      else Some (config, backend.b_name, c.cr_source)
    in
    match
      match Option.bind key (Memo.find st.st_memo) with
      | Some stored ->
        if !Util.Cachectl.debug then
          Memo.check stored ~fresh:(reply_of ~label:c.cr_label (compile ()));
        ( { stored with
            co_label = c.cr_label;
            co_shared_hits = 0;
            co_shared_lookups = 0;
            co_wall_ms = 1000.0 *. (Unix.gettimeofday () -. t0) },
          true )
      | None ->
        let compiled = compile () in
        let r = reply_of ~label:c.cr_label compiled in
        Option.iter (fun k -> Memo.add st.st_memo k r) key;
        let stats = compiled.lc_result.stats in
        sess.ss_tracked_hits <- sess.ss_tracked_hits + stats.st_hits;
        sess.ss_tracked_lookups <- sess.ss_tracked_lookups + stats.st_lookups;
        (r, false)
    with
    | r, hit ->
      sess.ss_incidents <- sess.ss_incidents + r.co_incidents;
      st.st_sv.sv_incidents <- st.st_sv.sv_incidents + r.co_incidents;
      sess.ss_shared_hits <- sess.ss_shared_hits + r.co_shared_hits;
      sess.ss_shared_lookups <- sess.ss_shared_lookups + r.co_shared_lookups;
      (Protocol.Compiled r, hit)
    | exception Frontend.Lexer.Error m ->
      (Protocol.Error_r ("lexical error: " ^ m), false)
    | exception Frontend.Parser.Error m ->
      (Protocol.Error_r ("syntax error: " ^ m), false)
    | exception e ->
      (* contained: the request failed, the session and server live on *)
      (Protocol.Error_r ("compile failed: " ^ Printexc.to_string e), false))

let request_kind = function
  | Protocol.Compile c -> "compile " ^ c.cr_label
  | Protocol.Stats -> "stats"
  | Protocol.Ping -> "ping"
  | Protocol.Shutdown -> "shutdown"

let handle_request st conn (req : Protocol.request) : Protocol.response =
  let sess = conn.c_session in
  let t0 = Unix.gettimeofday () in
  sess.ss_requests <- sess.ss_requests + 1;
  st.st_sv.sv_requests <- st.st_sv.sv_requests + 1;
  let resp, memo_hit =
    match req with
    | Protocol.Compile c ->
      let r, hit = handle_compile st sess c in
      (match r with
      | Protocol.Error_r _ ->
        sess.ss_errors <- sess.ss_errors + 1;
        st.st_sv.sv_errors <- st.st_sv.sv_errors + 1
      | _ -> ());
      (* crash-window discipline: the flush that covers a compile's
         facts happens before its response can reach the client *)
      st.st_since_flush <- st.st_since_flush + 1;
      if st.st_store <> None && st.st_since_flush >= st.st_cfg.d_flush_every
      then flush_store st ~reason:"request-count";
      (r, hit)
    | Protocol.Stats ->
      (match st.st_store with
      | Some _ -> flush_store st ~reason:"stats"
      | None -> ());
      (Protocol.Stats_reply (stats_json st), false)
    | Protocol.Ping -> (Protocol.Pong, false)
    | Protocol.Shutdown ->
      st.st_stop <- true;
      (Protocol.Bye, false)
  in
  let dt = Unix.gettimeofday () -. t0 in
  Metrics.add sess.ss_lat dt;
  Metrics.add st.st_sv.sv_lat dt;
  (let open Valid.Trace.Json in
   log_line st
     (obj
        [ ("event", str "request");
          ("session", int sess.ss_id);
          ("seq", int sess.ss_requests);
          ("kind", str (request_kind req));
          ("memo", bool memo_hit);
          ("wall_ms", float (1000.0 *. dt));
          ( "shared_hit_rate",
            float (Metrics.rate_of sess.ss_shared_hits sess.ss_shared_lookups)
          );
          ("incidents", int sess.ss_incidents);
          ("errors", int sess.ss_errors) ]));
  resp

(* ------------------------------------------------------------------ *)
(* Outgoing write queues                                               *)

(* every conn list is short (bounded by max_sessions), so summing is
   cheap enough to keep the high-water gauge exact *)
let total_pending conns =
  List.fold_left (fun a c -> if c.c_open then a + c.c_out_bytes else a) 0 conns

let log_evict st conn ~kind =
  let open Valid.Trace.Json in
  log_line st
    (obj
       [ ("event", str "evict");
         ("kind", str kind);
         ("session", int conn.c_session.ss_id);
         ("pending_bytes", int conn.c_out_bytes) ])

(* queue [wire] on [conn]; a queue that outgrows the cap means the
   peer stopped reading — evict it rather than hold its bytes forever *)
let enqueue st conns conn (wire : string) =
  if conn.c_open then begin
    Queue.add wire conn.c_outq;
    conn.c_out_bytes <- conn.c_out_bytes + String.length wire;
    let pending = total_pending conns in
    if pending > st.st_sv.sv_max_pending then
      st.st_sv.sv_max_pending <- pending;
    if conn.c_out_bytes > st.st_cfg.d_max_wbuf then begin
      st.st_sv.sv_evicted_slow <- st.st_sv.sv_evicted_slow + 1;
      log_evict st conn ~kind:"slow";
      close_conn conn
    end
  end

(* write as much of the queue as the kernel will take right now; never
   blocks (conn fds are non-blocking).  Closes on a gone peer; closes a
   [c_closing] conn whose last byte just left. *)
let flush_conn conn =
  if conn.c_open then begin
    let progress = ref false in
    let continue = ref true in
    while !continue && conn.c_open do
      match Queue.peek_opt conn.c_outq with
      | None -> continue := false
      | Some head -> (
        let len = String.length head - conn.c_out_off in
        match Unix.write_substring conn.c_fd head conn.c_out_off len with
        | 0 -> continue := false
        | k ->
          progress := true;
          conn.c_out_bytes <- conn.c_out_bytes - k;
          if k = len then begin
            ignore (Queue.pop conn.c_outq);
            conn.c_out_off <- 0
          end
          else begin
            (* kernel buffer full: stop until select says writable *)
            conn.c_out_off <- conn.c_out_off + k;
            continue := false
          end
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
          continue := false
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error _ -> close_conn conn)
    done;
    if !progress && conn.c_open then
      conn.c_last_active <- Unix.gettimeofday ();
    if conn.c_closing && conn.c_open && Queue.is_empty conn.c_outq then
      close_conn conn
  end

(* ------------------------------------------------------------------ *)
(* Frame processing                                                    *)

(* protocol violation or cap breach: answer [Rejected], stop reading,
   close once the answer is flushed.  One helper — the malformed-frame
   and malformed-payload paths used to be two identical branches. *)
let reject st conns conn msg =
  conn.c_session.ss_errors <- conn.c_session.ss_errors + 1;
  st.st_sv.sv_errors <- st.st_sv.sv_errors + 1;
  st.st_sv.sv_rejects <- st.st_sv.sv_rejects + 1;
  enqueue st conns conn
    (Protocol.frame (Protocol.encode_response (Protocol.Rejected msg)));
  conn.c_closing <- true

(* peel and answer buffered frames on [conn], at most [budget] per call
   so one aggressive pipeliner round-robins with the other sessions
   (the shutdown drain passes [max_int]) *)
let drain_frames ?budget st conns conn =
  let budget =
    ref (match budget with Some b -> b | None -> st.st_cfg.d_max_pipeline)
  in
  let continue = ref true in
  while !continue && conn.c_open && (not conn.c_closing) && !budget > 0 do
    match Protocol.peel conn.c_buf with
    | None -> continue := false
    | Some payload -> (
      decr budget;
      match Protocol.decode_request payload with
      | req ->
        let resp = handle_request st conn req in
        enqueue st conns conn
          (Protocol.frame (Protocol.encode_response resp));
        if resp = Protocol.Bye then conn.c_closing <- true
      | exception Protocol.Malformed m ->
        reject st conns conn ("malformed request: " ^ m))
    | exception Protocol.Malformed m ->
      reject st conns conn ("broken framing: " ^ m)
  done

(* ------------------------------------------------------------------ *)
(* The server loop                                                     *)

(** Run the daemon until a [Shutdown] request, a SIGINT/SIGTERM (when
    [signals]), or [stop] is set externally.  Returns after answering
    the requests already sent, compacting the store and removing the
    socket.
    [on_ready] fires once the socket is listening (tests use it to gate
    client connects).
    @raise Already_running when a live daemon owns the socket. *)
let run ?(signals = false) ?(stop = Atomic.make false) ?on_ready (cfg : cfg) :
    report =
  (* single-instance discipline before touching the socket *)
  (match probe ~socket:cfg.d_socket with
  | Live pid -> raise (Already_running (pid, cfg.d_socket))
  | Stale _ | Absent -> ());
  let store =
    Option.map
      (fun dir ->
        Store.open_store ~dir ~max_bytes:(cfg.d_max_cache_mb * 1024 * 1024) ())
      cfg.d_store_dir
  in
  let prev_backing = Option.map Store.install store in
  (* append: a restarted daemon must extend the log, not erase the
     history that explains why it restarted *)
  let log_oc =
    Option.map
      (fun p -> open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 p)
      cfg.d_log
  in
  (* a client that disappears mid-write must not kill the server *)
  let prev_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let prev_handlers =
    if signals then
      let h = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
      Some (Sys.signal Sys.sigint h, Sys.signal Sys.sigterm h)
    else None
  in
  (if Sys.file_exists cfg.d_socket then
     try Unix.unlink cfg.d_socket with Unix.Unix_error _ -> ());
  write_pidfile cfg.d_socket;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let now0 = Unix.gettimeofday () in
  let st =
    { st_cfg = cfg;
      st_store = store;
      st_sv = Metrics.server ~now:now0;
      st_memo = Memo.create ();
      st_sessions = [];
      st_stop = false;
      st_since_flush = 0;
      st_last_flush = now0;
      st_log = log_oc }
  in
  let conns : conn list ref = ref [] in
  let cleanup () =
    List.iter close_conn !conns;
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    (try Unix.unlink cfg.d_socket with Unix.Unix_error _ -> ());
    remove_pidfile cfg.d_socket;
    Option.iter
      (fun s ->
        Store.compact s;
        log_flush st s ~reason:"shutdown")
      store;
    Option.iter (fun prev -> Store.uninstall prev) prev_backing;
    (match prev_handlers with
    | Some (hi, ht) ->
      ignore (Sys.signal Sys.sigint hi);
      ignore (Sys.signal Sys.sigterm ht)
    | None -> ());
    ignore (Sys.signal Sys.sigpipe prev_sigpipe);
    Option.iter close_out log_oc
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.d_socket);
  Unix.listen listen_fd 64;
  (let open Valid.Trace.Json in
   log_line st
     (obj
        [ ("event", str "listening");
          ("socket", str cfg.d_socket);
          ( "store",
            match cfg.d_store_dir with Some d -> str d | None -> null ) ]);
   (* the restart marker: how much analysis state this lifetime
      recovered from the previous one's flushes *)
   log_line st
     (obj
        [ ("event", str "restart");
          ("pid", int (Unix.getpid ()));
          ( "recovered_entries",
            int (match store with Some s -> Store.loaded_count s | None -> 0)
          );
          ( "corrupt_dropped",
            int (match store with Some s -> Store.corrupt_count s | None -> 0)
          ) ]));
  Option.iter (fun f -> f ()) on_ready;
  let busy_wire = Protocol.frame (Protocol.encode_response Protocol.Busy) in
  let chunk = Bytes.create 65536 in
  let next_session = ref 0 in
  let accept_one now =
    match Unix.accept listen_fd with
    | fd, _ ->
      let open_sessions =
        List.length (List.filter (fun c -> c.c_open) !conns)
      in
      if open_sessions >= cfg.d_max_sessions then begin
        (* shed: one tiny Busy frame (always fits the empty socket
           buffer), then close — no session, no state *)
        st.st_sv.sv_shed <- st.st_sv.sv_shed + 1;
        (let open Valid.Trace.Json in
         log_line st
           (obj [ ("event", str "shed"); ("open_sessions", int open_sessions) ]));
        (try ignore (Unix.write_substring fd busy_wire 0 (String.length busy_wire))
         with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else begin
        Unix.set_nonblock fd;
        (match cfg.d_sndbuf with
        | Some n -> (
          try Unix.setsockopt_int fd Unix.SO_SNDBUF n
          with Unix.Unix_error _ | Invalid_argument _ -> ())
        | None -> ());
        incr next_session;
        st.st_sv.sv_sessions <- st.st_sv.sv_sessions + 1;
        let sess = Metrics.session !next_session in
        st.st_sessions <- sess :: st.st_sessions;
        conns :=
          { c_fd = fd; c_buf = Buffer.create 4096; c_outq = Queue.create ();
            c_out_off = 0; c_out_bytes = 0; c_last_active = now;
            c_closing = false; c_session = sess; c_open = true }
          :: !conns
      end
    | exception Unix.Unix_error _ -> ()
  in
  while (not st.st_stop) && not (Atomic.get stop) do
    let now = Unix.gettimeofday () in
    (* time-based flush: bound the crash window even on a quiet socket *)
    if
      store <> None && st.st_since_flush > 0
      && now -. st.st_last_flush >= cfg.d_flush_interval_s
    then flush_store st ~reason:"interval";
    List.iter
      (fun c ->
        if c.c_open && now -. c.c_last_active > cfg.d_idle_timeout_s then begin
          st.st_sv.sv_evicted_idle <- st.st_sv.sv_evicted_idle + 1;
          log_evict st c ~kind:"idle";
          close_conn c
        end)
      !conns;
    conns := List.filter (fun c -> c.c_open) !conns;
    (* oldest-first keeps per-turn processing in arrival order *)
    let ordered = List.rev !conns in
    let read_fds =
      listen_fd
      :: List.filter_map
           (fun c -> if c.c_open && not c.c_closing then Some c.c_fd else None)
           ordered
    in
    let write_fds =
      List.filter_map
        (fun c -> if c.c_open && c.c_out_bytes > 0 then Some c.c_fd else None)
        ordered
    in
    (* frames deferred by the pipelining cap are work we already have:
       poll at zero while any are buffered *)
    let timeout =
      if
        List.exists
          (fun c -> c.c_open && (not c.c_closing) && Protocol.has_frame c.c_buf)
          ordered
      then 0.0
      else cfg.d_poll_s
    in
    (match Unix.select read_fds write_fds [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _writable, _ ->
      if List.mem listen_fd readable then accept_one now;
      (* reads *)
      List.iter
        (fun c ->
          if c.c_open && (not c.c_closing) && List.mem c.c_fd readable then
            match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
            | 0 -> close_conn c
            | n ->
              c.c_last_active <- now;
              Buffer.add_subbytes c.c_buf chunk 0 n;
              if Buffer.length c.c_buf > cfg.d_max_rbuf then
                reject st !conns c "receive buffer cap exceeded"
            | exception
                Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
              close_conn c
            | exception
                Unix.Unix_error
                  ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              ())
        ordered;
      (* execute buffered frames — fresh and deferred alike, capped per
         connection per turn *)
      List.iter (fun c -> drain_frames st !conns c) ordered;
      (* opportunistic flush: the common case writes the response now;
         the select write set only exists to wake us for the backlog *)
      List.iter (fun c -> if c.c_out_bytes > 0 then flush_conn c) ordered);
    conns := List.filter (fun c -> c.c_open) !conns
  done;
  (* graceful drain: answer every request already sent (one last
     non-blocking read picks up bytes in flight — nothing waits for
     new work), then flush the queues blocking, flush the store and go
     down *)
  List.iter
    (fun c ->
      if c.c_open then begin
        (try
           let continue = ref true in
           while !continue do
             match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
             | 0 -> continue := false
             | n -> Buffer.add_subbytes c.c_buf chunk 0 n
             | exception Unix.Unix_error _ -> continue := false
           done
         with Unix.Unix_error _ -> ());
        if not c.c_closing then drain_frames ~budget:max_int st !conns c;
        (* deliver the queued answers even to a peer whose socket
           buffer is full: blocking writes, best effort *)
        (try
           Unix.clear_nonblock c.c_fd;
           while c.c_open && not (Queue.is_empty c.c_outq) do
             let head = Queue.peek c.c_outq in
             let len = String.length head - c.c_out_off in
             match Unix.write_substring c.c_fd head c.c_out_off len with
             | 0 -> close_conn c
             | k ->
               c.c_out_bytes <- c.c_out_bytes - k;
               if k = len then begin
                 ignore (Queue.pop c.c_outq);
                 c.c_out_off <- 0
               end
               else c.c_out_off <- c.c_out_off + k
           done
         with Unix.Unix_error _ -> close_conn c)
      end)
    (List.rev !conns);
  (let open Valid.Trace.Json in
   log_line st (obj [ ("event", str "shutdown"); ("stats", stats_json st) ]));
  { r_graceful = true;
    r_requests = st.st_sv.sv_requests;
    r_sessions = st.st_sv.sv_sessions;
    r_shed = st.st_sv.sv_shed;
    r_evicted_slow = st.st_sv.sv_evicted_slow;
    r_evicted_idle = st.st_sv.sv_evicted_idle;
    r_max_pending = st.st_sv.sv_max_pending }
