(** The daemon's reply memo: a bounded table from a compile request to
    the reply it got, so a repeated request is answered without
    compiling.

    A key is the request's resolved configuration, its resolved backend
    name and its full source text.  The compile is deterministic in
    those three (every analysis cache is a performance lever only, and
    the daemon's budget is part of the configuration), so a stored reply
    is what a fresh compile would answer, apart from the fields that
    describe the compile itself: the daemon sets a hit's label and wall
    time to the new request's and reports no shared-cache lookups, since
    none were made.  [co_reuse_rate] stays the stored compile's.

    Each {!Daemon} instance owns one memo, so a second daemon in the
    same process, with another budget say, never sees the first one's
    replies.  The daemon skips the memo for [check] requests, which ask
    for a compile, and when the request's configuration has its caches
    off.  Nothing is persisted and no flag tunes it.

    The bound is two generations of {!gen_bytes} bytes of text each
    (source, output and verdict lines).  A new entry goes into the young
    generation; when it would overflow it, the young generation becomes
    the old one and the old one is dropped.  A hit in the old generation
    moves the entry to the young one, so the sources that keep coming
    back stay.  No clock is read. *)

(* (configuration, backend name, source): the polymorphic hash reaches
   both strings and mixes every byte of them *)
type key = Core.Config.t * string * string

type entry = { reply : Protocol.compile_reply; size : int }
type gen = { tbl : (key, entry) Hashtbl.t; mutable bytes : int }

type t = {
  mutable young : gen;
  mutable old : gen;
  mutable hits : int;
  mutable misses : int;
}

(** Text bytes one generation holds. *)
let gen_bytes = 512 * 1024

(** Text bytes the memo never exceeds. *)
let max_bytes = 2 * gen_bytes

let gen () = { tbl = Hashtbl.create 64; bytes = 0 }
let create () = { young = gen (); old = gen (); hits = 0; misses = 0 }

let add_young t k e =
  if t.young.bytes + e.size > gen_bytes then begin
    t.old <- t.young;
    t.young <- gen ()
  end;
  Hashtbl.add t.young.tbl k e;
  t.young.bytes <- t.young.bytes + e.size

(** The reply stored under [k], if any; counts a hit or a miss. *)
let find t k =
  match Hashtbl.find_opt t.young.tbl k with
  | Some e ->
    t.hits <- t.hits + 1;
    Some e.reply
  | None -> (
    match Hashtbl.find_opt t.old.tbl k with
    | Some e ->
      Hashtbl.remove t.old.tbl k;
      t.old.bytes <- t.old.bytes - e.size;
      add_young t k e;
      t.hits <- t.hits + 1;
      Some e.reply
    | None ->
      t.misses <- t.misses + 1;
      None)

(** Store [reply] under [k], which {!find} has just missed.  A reply
    larger than a generation is not stored. *)
let add t ((_, _, source) as k : key) (reply : Protocol.compile_reply) =
  let size =
    List.fold_left
      (fun a v -> a + String.length v)
      (String.length source + String.length reply.co_output)
      reply.co_verdicts
  in
  if size <= gen_bytes then add_young t k { reply; size }

(** The debug-mode cross-check of a hit ([POLARIS_CACHE_DEBUG=1]): the
    stored reply against a fresh compile's, on output, verdicts and
    incidents.
    @raise Util.Cachectl.Debug_mismatch on a difference. *)
let check (stored : Protocol.compile_reply) ~(fresh : Protocol.compile_reply)
    =
  if
    stored.co_output <> fresh.co_output
    || stored.co_verdicts <> fresh.co_verdicts
    || stored.co_incidents <> fresh.co_incidents
  then raise (Util.Cachectl.Debug_mismatch "serve.memo")

let stats_json t =
  let open Valid.Trace.Json in
  obj
    [ ("hits", int t.hits);
      ("misses", int t.misses);
      ("entries", int (Hashtbl.length t.young.tbl + Hashtbl.length t.old.tbl));
      ("bytes", int (t.young.bytes + t.old.bytes)) ]
