(** Wire protocol of the compile daemon.

    One connection is one client {e session}: a sequence of
    length-prefixed request frames, each answered by exactly one
    length-prefixed response frame, in order.  A frame is a 4-byte
    big-endian payload length, a 4-byte FNV-1a checksum of the payload,
    then the payload; inside a payload every field is explicitly
    encoded (tag bytes, length-prefixed strings, 8-byte IEEE-754
    floats), so the format is binary-deterministic, independent of
    [Marshal], and safe to parse from untrusted peers — every decoder
    validates lengths and tags and raises {!Malformed} instead of
    reading out of bounds.

    The checksum is the transport-fault detector: a bit flip anywhere
    in a frame (length, checksum or payload) is caught before the
    payload is decoded, so a corrupted {e request} can never be
    silently compiled as a different program and a corrupted
    {e response} can never be silently accepted as a result.  Both
    sides treat a checksum mismatch exactly like any other framing
    violation — the daemon answers {!Rejected} and closes the guilty
    session, the client drops the connection and (with retries
    configured) reconnects and resends.  Compiles are deterministic, so
    the retry is idempotent-safe.

    Requests: [Compile] carries the {e source text} (the client reads
    the file, keeping the daemon independent of the client's
    filesystem), a label for reporting, a [check] flag asking the
    daemon to verify the compile against a from-scratch one, and
    optional pass-pipeline / emission-backend overrides (empty strings
    pick the daemon's defaults; the daemon resolves the names against
    its registries and answers [Error_r] for unknown ones).  [Stats]
    asks for the server's observability report.  [Ping] is a liveness
    probe answered with [Pong].  [Shutdown] asks for a graceful
    drain-flush-exit.

    Responses carry everything a client needs to reproduce the
    compiler's one-shot behaviour byte-for-byte: the annotated output
    source, the sid-masked per-loop verdict lines, incident counts,
    and the per-request reuse telemetry (tracked-analysis rate and
    shared persistent-cache rate) the benchmark aggregates.  [Busy] and
    [Rejected] are the daemon's self-protection verdicts: [Busy] sheds
    a connection at the admission cap (retry later — nothing was
    attempted), [Rejected] answers a protocol violation (a retried
    request may succeed: the bytes, not the request, were bad). *)

exception Malformed of string
(** A frame or payload that violates the protocol.  Per-connection
    fault containment: the daemon answers with {!Rejected} and closes
    that session only. *)

exception Timeout
(** Raised by {!recv} when its deadline passes before a complete frame
    arrives.  Clients treat it as a transient failure (retryable). *)

let max_frame = 64 * 1024 * 1024
(** Ceiling on one frame's payload (64 MB): a corrupt or hostile length
    prefix must not make the server allocate unboundedly. *)

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)

type compile_req = {
  cr_label : string;   (** client-side name, e.g. the file path *)
  cr_source : string;  (** full Fortran source text *)
  cr_check : bool;     (** verify against a from-scratch compile *)
  cr_baseline : bool;  (** use the baseline (PFA-like) pipeline *)
  cr_pipeline : string;
      (** always [""]: the pass order is fixed, and the daemon answers
          any other value with an application error ([Error_r]), not a
          protocol violation.  The field stays only for wire
          compatibility. *)
  cr_backend : string;
      (** emission backend name, resolved against {!Backend.Registry}
          on the daemon; [""] means the daemon's default *)
}

type request = Compile of compile_req | Stats | Ping | Shutdown

type compile_reply = {
  co_label : string;
  co_output : string;          (** annotated output source *)
  co_verdicts : string list;   (** sid-masked per-loop verdict lines *)
  co_incidents : int;          (** contained pass faults of this compile *)
  co_reuse_rate : float;       (** tracked-analysis reuse (hits/lookups) *)
  co_shared_hits : int;        (** hits in the persistent (shared) caches *)
  co_shared_lookups : int;
  co_wall_ms : float;          (** server-side wall time of the compile *)
  co_check_divergences : string list;
      (** non-empty only when [cr_check] was set and the incremental
          compile diverged from scratch — a server-side contract
          violation the client must surface *)
}

type response =
  | Compiled of compile_reply
  | Stats_reply of string  (** the server's observability report, JSON *)
  | Error_r of string      (** request-contained {e application} failure
                               (bad source); deterministic, not retryable *)
  | Rejected of string     (** protocol-level refusal (malformed frame,
                               cap exceeded); the connection closes and a
                               retry over a fresh one may succeed *)
  | Busy                   (** load shed at the admission cap; retry later *)
  | Pong                   (** liveness probe answer *)
  | Bye                    (** shutdown acknowledged; the server is draining *)

(* ------------------------------------------------------------------ *)
(* Primitive encoders / decoders                                       *)

let add_u32 buf n =
  if n < 0 || n > max_frame then
    invalid_arg (Printf.sprintf "Protocol.add_u32: %d out of range" n);
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (n land 0xff))

let add_str buf s =
  add_u32 buf (String.length s);
  Buffer.add_string buf s

let add_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let add_float buf f =
  let bits = Int64.bits_of_float f in
  for i = 7 downto 0 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xFFL)))
  done

let add_list buf add xs =
  add_u32 buf (List.length xs);
  List.iter (add buf) xs

(* cursor-based reader over one payload string *)
type cursor = { s : string; mutable pos : int }

let need c n what =
  if c.pos + n > String.length c.s then
    raise (Malformed (Printf.sprintf "truncated payload reading %s" what))

let get_u8 c what =
  need c 1 what;
  let b = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  b

let get_u32 c what =
  need c 4 what;
  let b i = Char.code c.s.[c.pos + i] in
  let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  c.pos <- c.pos + 4;
  if n > max_frame then
    raise (Malformed (Printf.sprintf "%s length %d exceeds limit" what n));
  n

let get_str c what =
  let n = get_u32 c what in
  need c n what;
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

let get_bool c what =
  match get_u8 c what with
  | 0 -> false
  | 1 -> true
  | b -> raise (Malformed (Printf.sprintf "%s: bad boolean byte %d" what b))

let get_float c what =
  need c 8 what;
  let bits = ref 0L in
  for i = 0 to 7 do
    bits :=
      Int64.logor (Int64.shift_left !bits 8)
        (Int64.of_int (Char.code c.s.[c.pos + i]))
  done;
  c.pos <- c.pos + 8;
  Int64.float_of_bits !bits

let get_list c get what =
  let n = get_u32 c what in
  List.init n (fun _ -> get c what)

let finished c what =
  if c.pos <> String.length c.s then
    raise
      (Malformed
         (Printf.sprintf "%s: %d trailing bytes" what
            (String.length c.s - c.pos)))

(* ------------------------------------------------------------------ *)
(* Request / response payloads                                         *)

let encode_request (r : request) : string =
  let buf = Buffer.create 256 in
  (match r with
  | Compile c ->
    Buffer.add_char buf 'C';
    add_str buf c.cr_label;
    add_bool buf c.cr_check;
    add_bool buf c.cr_baseline;
    add_str buf c.cr_pipeline;
    add_str buf c.cr_backend;
    add_str buf c.cr_source
  | Stats -> Buffer.add_char buf 'S'
  | Ping -> Buffer.add_char buf 'P'
  | Shutdown -> Buffer.add_char buf 'Q');
  Buffer.contents buf

let decode_request (payload : string) : request =
  let c = { s = payload; pos = 0 } in
  let r =
    match Char.chr (get_u8 c "request tag") with
    | 'C' ->
      let cr_label = get_str c "compile label" in
      let cr_check = get_bool c "compile check flag" in
      let cr_baseline = get_bool c "compile baseline flag" in
      let cr_pipeline = get_str c "compile pipeline spec" in
      let cr_backend = get_str c "compile backend name" in
      let cr_source = get_str c "compile source" in
      Compile { cr_label; cr_source; cr_check; cr_baseline;
                cr_pipeline; cr_backend }
    | 'S' -> Stats
    | 'P' -> Ping
    | 'Q' -> Shutdown
    | t -> raise (Malformed (Printf.sprintf "unknown request tag %C" t))
  in
  finished c "request";
  r

let encode_response (r : response) : string =
  let buf = Buffer.create 1024 in
  (match r with
  | Compiled o ->
    Buffer.add_char buf 'R';
    add_str buf o.co_label;
    add_str buf o.co_output;
    add_list buf add_str o.co_verdicts;
    add_u32 buf o.co_incidents;
    add_float buf o.co_reuse_rate;
    add_u32 buf o.co_shared_hits;
    add_u32 buf o.co_shared_lookups;
    add_float buf o.co_wall_ms;
    add_list buf add_str o.co_check_divergences
  | Stats_reply json ->
    Buffer.add_char buf 'T';
    add_str buf json
  | Error_r msg ->
    Buffer.add_char buf 'E';
    add_str buf msg
  | Rejected msg ->
    Buffer.add_char buf 'J';
    add_str buf msg
  | Busy -> Buffer.add_char buf 'Y'
  | Pong -> Buffer.add_char buf 'p'
  | Bye -> Buffer.add_char buf 'B');
  Buffer.contents buf

let decode_response (payload : string) : response =
  let c = { s = payload; pos = 0 } in
  let r =
    match Char.chr (get_u8 c "response tag") with
    | 'R' ->
      let co_label = get_str c "reply label" in
      let co_output = get_str c "reply output" in
      let co_verdicts = get_list c get_str "reply verdicts" in
      let co_incidents = get_u32 c "reply incidents" in
      let co_reuse_rate = get_float c "reply reuse rate" in
      let co_shared_hits = get_u32 c "reply shared hits" in
      let co_shared_lookups = get_u32 c "reply shared lookups" in
      let co_wall_ms = get_float c "reply wall" in
      let co_check_divergences = get_list c get_str "reply divergences" in
      Compiled
        { co_label; co_output; co_verdicts; co_incidents; co_reuse_rate;
          co_shared_hits; co_shared_lookups; co_wall_ms; co_check_divergences }
    | 'T' -> Stats_reply (get_str c "stats json")
    | 'E' -> Error_r (get_str c "error message")
    | 'J' -> Rejected (get_str c "rejection message")
    | 'Y' -> Busy
    | 'p' -> Pong
    | 'B' -> Bye
    | t -> raise (Malformed (Printf.sprintf "unknown response tag %C" t))
  in
  finished c "response";
  r

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)

let header_len = 8
(** 4-byte payload length + 4-byte FNV-1a payload checksum. *)

(** 32-bit FNV-1a over [s] — cheap, order-sensitive, and sensitive to
    any single bit flip; the frame integrity check, not a cryptographic
    authenticator (the store's trust model is {!Store}'s concern). *)
let fnv32 (s : string) : int =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff)
    s;
  !h

(* the checksum is a full 32-bit value, so it cannot go through
   [add_u32] (whose range check is for payload lengths) *)
let add_raw32 buf n =
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (n land 0xff))

(** [frame payload]: the bytes to put on the wire. *)
let frame (payload : string) : string =
  let buf = Buffer.create (String.length payload + header_len) in
  add_u32 buf (String.length payload);
  add_raw32 buf (fnv32 payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

(** [peel buf]: if [buf] starts with a complete frame, remove and
    return its payload; [None] while bytes are still missing.  Raises
    {!Malformed} on an oversized length prefix or a checksum mismatch —
    the connection's framing is unrecoverable from that point. *)
let peel (buf : Buffer.t) : string option =
  let len = Buffer.length buf in
  if len < header_len then None
  else begin
    let b i = Char.code (Buffer.nth buf i) in
    let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    if n > max_frame then
      raise (Malformed (Printf.sprintf "frame length %d exceeds limit" n));
    let ck = (b 4 lsl 24) lor (b 5 lsl 16) lor (b 6 lsl 8) lor b 7 in
    if len < header_len + n then None
    else begin
      let payload = Buffer.sub buf header_len n in
      if fnv32 payload <> ck then
        raise (Malformed "frame checksum mismatch");
      let rest =
        Buffer.sub buf (header_len + n) (len - header_len - n)
      in
      Buffer.clear buf;
      Buffer.add_string buf rest;
      Some payload
    end
  end

(** [has_frame buf]: true when {!peel} would make progress — a complete
    frame is buffered, or the header is already provably malformed.
    The daemon's select loop polls this to keep processing pipelined
    frames that arrived in one read. *)
let has_frame (buf : Buffer.t) : bool =
  let len = Buffer.length buf in
  len >= header_len
  &&
  let b i = Char.code (Buffer.nth buf i) in
  let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  n > max_frame || len >= header_len + n

(* ------------------------------------------------------------------ *)
(* Blocking I/O helpers (client side and tests)                        *)

let write_all fd (s : string) =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    let k = Unix.write fd b !off (n - !off) in
    if k = 0 then raise (Malformed "connection closed mid-write");
    off := !off + k
  done

(** Send one message (request or response payload) on [fd]. *)
let send fd (payload : string) = write_all fd (frame payload)

(** Receive one complete frame from [fd] (blocking); [None] on orderly
    EOF at a frame boundary.  [buf] is the connection's carry-over
    buffer: bytes of a following frame that arrive in the same read are
    kept there for the next call.

    [read] is the transport seam ({!Serve.Chaosnet} substitutes a
    fault-injecting reader); [deadline] is an absolute
    [Unix.gettimeofday] instant after which {!Timeout} raises instead
    of blocking forever on a stalled or dead daemon. *)
let recv ?(read = Unix.read) ?deadline fd (buf : Buffer.t) : string option =
  let chunk = Bytes.create 4096 in
  let wait_readable () =
    match deadline with
    | None -> ()
    | Some d ->
      let rec sel () =
        let left = d -. Unix.gettimeofday () in
        if left <= 0.0 then raise Timeout;
        match Unix.select [ fd ] [] [] left with
        | [], _, _ -> raise Timeout
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> sel ()
      in
      sel ()
  in
  let rec loop () =
    match peel buf with
    | Some payload -> Some payload
    | None -> (
      wait_readable ();
      match read fd chunk 0 (Bytes.length chunk) with
      | 0 ->
        if Buffer.length buf = 0 then None
        else raise (Malformed "connection closed mid-frame")
      | k ->
        Buffer.add_subbytes buf chunk 0 k;
        loop ())
  in
  loop ()
