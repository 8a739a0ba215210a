(** The daemon's persistent analysis store.

    A size-bounded, integrity-checked, LRU-evicted on-disk mirror of
    the persistent content-addressed semantic caches ([dep.verdict],
    [range_prop.env_at], [poly.of_expr]: every {!Symbolic.Cache}
    created with [~persist:true]; the [compare.*] proof tables stay in
    memory).  Installed as the
    {!Util.Cachectl.backing} store, it makes analysis facts {e shared}
    across client sessions (they already share the in-process tables)
    and {e persistent} across daemon restarts: a warm daemon re-proves
    nothing it proved last week about an unchanged loop nest.

    {b Trust model.}  Entries are [Marshal]-encoded OCaml values, which
    are only type-safe when written by the very same binary.  The store
    file therefore opens with the MD5 digest of the running executable:
    a file written by any other build (or corrupted in the header) is
    discarded wholesale — stale facts are dropped, never trusted.
    Every entry additionally carries an MD5 digest of its bytes;
    truncated or garbled entries are dropped individually (a digest
    mismatch with intact framing skips one entry; a length field that
    is broken, or runs past the end of the file, abandons the
    unreadable tail).  Dropping is always safe: a missing entry is a
    cache miss, and the compiler recomputes the fact — byte-identically,
    by the caches' soundness contract ({!Util.Cachectl}).

    {b Append, and compact rarely.}  A {!flush} appends to the file the
    live entries inserted or replaced since the previous flush, so it
    costs what changed, not what the store holds; a later frame for a
    key replaces an earlier one when the file is read back.  The whole
    file is rewritten (temp file + rename: {e compaction}) only when
    appending would be unsafe or wasteful:
    - the file this store opened was not complete and clean under this
      binary's header (missing, foreign, torn or garbled) — the reader
      abandons everything after a broken frame, so nothing may ever be
      appended after one;
    - the file on disk is not the one this store last wrote (it is
      missing or its size differs — one [stat] per flush);
    - the append would leave the entries in the file over twice the
      live bytes (the resident total), the rest being evicted or
      replaced frames;
    - the daemon shuts down gracefully ({!compact}), so that a restart
      loads a minimal file.
    With nothing dirty and the file intact, a flush writes nothing.

    {b Eviction.}  The store tracks a recency tick per entry (bumped on
    every lookup hit and insert; a hit is not written to disk — the
    file carries each entry's tick as of its last write).  When the
    byte total exceeds the bound ([--max-cache-mb]),
    least-recently-used entries are evicted — on insert (so one
    pathological session cannot balloon the daemon's memory) and again
    at {!flush}.  The bound covers the live entries: between
    compactions the file can reach twice the bound, and a compaction
    brings it back under it.

    {b Domain safety.}  Lookups and inserts arrive concurrently from
    {!Util.Pool} worker domains mid-phase; one mutex serializes all
    table access.  The critical sections are small (no marshaling
    happens under the lock — the cache layer passes ready bytes). *)

type entry = {
  mutable e_data : string;
  mutable e_tick : int;  (** recency: larger = more recently used *)
  mutable e_dirty : bool;  (** inserted or replaced since the last flush *)
}

(** What a flush wrote: nothing (no live entry was dirty and the file
    was intact), the dirty entries at the end of the file, or the whole
    file. *)
type flush_mode = Unchanged | Appended | Compacted

type flushed = { fl_mode : flush_mode; fl_bytes : int; fl_ms : float }

type t = {
  dir : string;
  path : string;
  max_bytes : int;
  tbl : (string * string, entry) Hashtbl.t;  (** (cache name, key bytes) *)
  m : Mutex.t;
  mutable tick : int;
  mutable bytes : int;  (** payload bytes currently held *)
  mutable dirty : (string * string * entry) list;
      (** every entry marked dirty since the last flush, newest first;
          an evicted one is no longer the table's entry for its key *)
  mutable file_bytes : int option;
      (** size of the file as this store last read it clean or wrote it;
          [None] when it must be rewritten before anything is appended *)
  (* observability *)
  mutable n_disk_hits : int;     (** lookups served from the store *)
  mutable n_disk_misses : int;
  mutable n_loaded : int;        (** distinct entries accepted at open *)
  mutable n_corrupt : int;       (** entries or files dropped by integrity checks *)
  mutable n_evicted : int;
  mutable n_inserts : int;
  mutable n_appends : int;
  mutable n_compactions : int;
  mutable flush_ms_total : float;
  mutable flush_ms_max : float;
  mutable last_flush : flushed;
}

let magic = "POLARIS-STORE-v1\n"

(* Only load marshaled bytes written by this exact binary: any other
   build's type layout must not be trusted.  Computed once. *)
let exe_digest = lazy (Digest.file Sys.executable_name)

let file_name = "analysis.store"

(* the magic and the executable's digest *)
let header_len = String.length magic + 16

let entry_cost (name : string) (key : string) (data : string) =
  String.length name + String.length key + String.length data + 40

(* ------------------------------------------------------------------ *)
(* Eviction (caller holds the lock)                                    *)

let evict_over_locked t ~budget =
  if t.bytes > budget then begin
    let entries =
      Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.tbl []
      |> List.sort (fun (_, a) (_, b) -> compare b.e_tick a.e_tick)
    in
    let total = ref 0 in
    List.iter
      (fun ((name, key), e) ->
        let c = entry_cost name key e.e_data in
        if !total + c <= budget then total := !total + c
        else begin
          Hashtbl.remove t.tbl (name, key);
          t.bytes <- t.bytes - c;
          t.n_evicted <- t.n_evicted + 1
        end)
      entries
  end

(* ------------------------------------------------------------------ *)
(* Load                                                                *)

(* Robust reader: returns the entries it could authenticate, the
   number it had to drop, and — when it read the whole file under this
   binary's header and dropped nothing — the file's size.  Any framing
   damage abandons the rest of the file (lengths can no longer be
   trusted); a digest mismatch with plausible framing drops that one
   entry and continues.  A length is checked against the bytes left
   before anything is allocated for it: a garbled one must cost a
   dropped tail, not a 4 GB string. *)
let load_file path :
    (string * string * string * int) list * int * int option =
  match open_in_bin path with
  | exception Sys_error _ -> ([], 0, None)
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let len = in_channel_length ic in
    if len < header_len then ([], (if len = 0 then 0 else 1), None)
    else begin
      let head = really_input_string ic (String.length magic) in
      let dg = really_input_string ic 16 in
      if head <> magic || dg <> Lazy.force exe_digest then ([], 1, None)
      else begin
        let read_u32 () = input_binary_int ic land 0xffff_ffff in
        let read_field () =
          let n = read_u32 () in
          if n > len - pos_in ic then raise End_of_file;
          really_input_string ic n
        in
        let entries = ref [] and dropped = ref 0 in
        (try
           while pos_in ic < len do
             let name = read_field () in
             let key = read_field () in
             let data = read_field () in
             let tick = read_u32 () in
             let digest = really_input_string ic 16 in
             if Digest.string (name ^ key ^ data) = digest then
               entries := (name, key, data, tick) :: !entries
             else incr dropped
           done
         with End_of_file | Invalid_argument _ ->
           (* framing broke: the unreadable tail is one corruption event *)
           incr dropped);
        (List.rev !entries, !dropped, if !dropped = 0 then Some len else None)
      end
    end

let open_store ~dir ~max_bytes () : t =
  (if not (Sys.file_exists dir) then
     try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir file_name in
  let entries, dropped, clean_size = load_file path in
  let t =
    { dir; path; max_bytes; tbl = Hashtbl.create 4096; m = Mutex.create ();
      tick = 0; bytes = 0; dirty = [];
      file_bytes = clean_size;
      n_disk_hits = 0; n_disk_misses = 0; n_loaded = 0;
      n_corrupt = dropped; n_evicted = 0; n_inserts = 0; n_appends = 0;
      n_compactions = 0; flush_ms_total = 0.0; flush_ms_max = 0.0;
      last_flush = { fl_mode = Unchanged; fl_bytes = 0; fl_ms = 0.0 } }
  in
  (* a later frame for a key (an appended replacement) supersedes the
     earlier one *)
  List.iter
    (fun (name, key, data, tick) ->
      Hashtbl.replace t.tbl (name, key)
        { e_data = data; e_tick = tick; e_dirty = false };
      if tick > t.tick then t.tick <- tick)
    entries;
  t.bytes <-
    Hashtbl.fold (fun (name, key) e n -> n + entry_cost name key e.e_data) t.tbl 0;
  t.n_loaded <- Hashtbl.length t.tbl;
  Mutex.lock t.m;
  evict_over_locked t ~budget:t.max_bytes;
  Mutex.unlock t.m;
  t

(* ------------------------------------------------------------------ *)
(* The backing-store interface                                         *)

let lookup t ~name ~key =
  Mutex.lock t.m;
  let r =
    match Hashtbl.find_opt t.tbl (name, key) with
    | Some e ->
      t.tick <- t.tick + 1;
      e.e_tick <- t.tick;
      t.n_disk_hits <- t.n_disk_hits + 1;
      Some e.e_data
    | None ->
      t.n_disk_misses <- t.n_disk_misses + 1;
      None
  in
  Mutex.unlock t.m;
  r

let insert t ~name ~key ~data =
  Mutex.lock t.m;
  t.tick <- t.tick + 1;
  (match Hashtbl.find_opt t.tbl (name, key) with
  | Some e ->
    t.bytes <- t.bytes + String.length data - String.length e.e_data;
    e.e_data <- data;
    e.e_tick <- t.tick;
    if not e.e_dirty then begin
      e.e_dirty <- true;
      t.dirty <- (name, key, e) :: t.dirty
    end
  | None ->
    let e = { e_data = data; e_tick = t.tick; e_dirty = true } in
    Hashtbl.replace t.tbl (name, key) e;
    t.dirty <- (name, key, e) :: t.dirty;
    t.bytes <- t.bytes + entry_cost name key data);
  t.n_inserts <- t.n_inserts + 1;
  (* keep the resident set bounded too: one greedy session must not
     balloon the daemon; modest slack so steady-state inserts don't
     resort the table on every call *)
  if t.bytes > t.max_bytes + (t.max_bytes / 4) then
    evict_over_locked t ~budget:t.max_bytes;
  Mutex.unlock t.m

(** Entry count currently resident. *)
let entry_count t =
  Mutex.lock t.m;
  let n = Hashtbl.length t.tbl in
  Mutex.unlock t.m;
  n

(** Entries recovered from disk when the store was opened — what a
    daemon restart actually inherited (the [restart] log event and the
    crash-recovery tests read this). *)
let loaded_count t = t.n_loaded

(** Entries or files dropped by the integrity checks at open.  Zero
    means the on-disk store passed every digest.  A compaction cannot
    be torn (temp file + rename), but an append can: a crash mid-append
    leaves a torn tail, which the next open drops and counts here, and
    the next flush then compacts.  Every reply the daemon sent was
    covered by a flush that completed, so a torn tail never holds a
    fact a client has seen answered. *)
let corrupt_count t = t.n_corrupt

(* ------------------------------------------------------------------ *)
(* Flush                                                               *)

(* One frame: name, key and data, each behind a big-endian u32 length,
   then the recency tick and the MD5 of name ^ key ^ data. *)
let output_frame oc name key e =
  output_binary_int oc (String.length name);
  output_string oc name;
  output_binary_int oc (String.length key);
  output_string oc key;
  output_binary_int oc (String.length e.e_data);
  output_string oc e.e_data;
  output_binary_int oc (e.e_tick land 0x7fffffff);
  output_string oc (Digest.string (name ^ key ^ e.e_data))

let frame_size name key e =
  String.length name + String.length key + String.length e.e_data + 32

let is_live t (name, key, e) =
  match Hashtbl.find_opt t.tbl (name, key) with
  | Some e' -> e' == e
  | None -> false

(* The full rewrite: every live entry with its current tick, into a
   temp file that replaces the old one by rename. *)
let compact_locked t =
  let tmp = t.path ^ ".tmp" in
  let oc = open_out_bin tmp in
  let size =
    try
      output_string oc magic;
      output_string oc (Lazy.force exe_digest);
      Hashtbl.iter (fun (name, key) e -> output_frame oc name key e) t.tbl;
      let size = pos_out oc in
      close_out oc;
      size
    with e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e
  in
  Sys.rename tmp t.path;
  t.file_bytes <- Some size;
  t.n_compactions <- t.n_compactions + 1;
  size

(* The file on disk still has the size this store last read clean or
   wrote, so it is that file: one [stat] per flush. *)
let unchanged_on_disk t n =
  match Unix.stat t.path with
  | st -> st.Unix.st_size = n
  | exception Unix.Unix_error _ -> false

(* A failed append may leave a torn tail, so the next flush compacts. *)
let append_locked t live bytes =
  match
    let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0 t.path in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
    List.iter (fun (name, key, e) -> output_frame oc name key e) live;
    close_out oc
  with
  | () ->
    t.file_bytes <- Option.map (( + ) bytes) t.file_bytes;
    t.n_appends <- t.n_appends + 1
  | exception e ->
    t.file_bytes <- None;
    raise e

let finish_locked t mode bytes t0 =
  List.iter (fun (_, _, e) -> e.e_dirty <- false) t.dirty;
  t.dirty <- [];
  let ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
  if mode <> Unchanged then begin
    t.flush_ms_total <- t.flush_ms_total +. ms;
    if ms > t.flush_ms_max then t.flush_ms_max <- ms
  end;
  t.last_flush <- { fl_mode = mode; fl_bytes = bytes; fl_ms = ms }

(** Write what changed since the last flush, evicting LRU entries
    beyond the size bound first.  The live entries inserted or replaced
    since the last flush are appended to the file; the file is
    compacted instead when it is not intact (see the module comment) or
    would hold more than twice the live bytes.  With nothing dirty and
    the file intact, nothing is written.  The file is closed, so the
    bytes have reached the kernel, before this returns.  Safe to call
    at any sequential point; the daemon flushes every [--flush-every]
    compile requests, after [--flush-interval] seconds with unflushed
    work, and on every [Stats] request. *)
let flush t =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  evict_over_locked t ~budget:t.max_bytes;
  let live = List.filter (is_live t) (List.rev t.dirty) in
  let bytes =
    List.fold_left (fun n (name, key, e) -> n + frame_size name key e) 0 live
  in
  match t.file_bytes with
  | Some n when unchanged_on_disk t n && n + bytes <= header_len + (2 * t.bytes)
    ->
    if live = [] then finish_locked t Unchanged 0 t0
    else begin
      append_locked t live bytes;
      finish_locked t Appended bytes t0
    end
  | _ -> finish_locked t Compacted (compact_locked t) t0

(** Rewrite the whole file from the live entries (after evicting beyond
    the size bound), whatever is dirty.  The daemon compacts on its way
    down, so that a restart loads a minimal file. *)
let compact t =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  evict_over_locked t ~budget:t.max_bytes;
  finish_locked t Compacted (compact_locked t) t0

(** What the latest {!flush} or {!compact} wrote, and how long it
    took. *)
let last_flush t = t.last_flush

let mode_name = function
  | Unchanged -> "none"
  | Appended -> "append"
  | Compacted -> "compact"

(* ------------------------------------------------------------------ *)
(* Installation                                                        *)

(** Route every persistent {!Symbolic.Cache} through [t]; returns the
    previously installed backing (restore it when the daemon exits). *)
let install t : Util.Cachectl.backing option =
  let prev = !Util.Cachectl.backing in
  Util.Cachectl.set_backing
    (Some
       { Util.Cachectl.bk_lookup = (fun ~name ~key -> lookup t ~name ~key);
         bk_insert = (fun ~name ~key ~data -> insert t ~name ~key ~data) });
  prev

let uninstall prev = Util.Cachectl.set_backing prev

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)

let stats_json t =
  Mutex.lock t.m;
  let j =
    Valid.Trace.Json.obj
      [ ("dir", Valid.Trace.Json.str t.dir);
        ("max_bytes", Valid.Trace.Json.int t.max_bytes);
        ("resident_bytes", Valid.Trace.Json.int t.bytes);
        ("entries", Valid.Trace.Json.int (Hashtbl.length t.tbl));
        ("loaded", Valid.Trace.Json.int t.n_loaded);
        ("disk_hits", Valid.Trace.Json.int t.n_disk_hits);
        ("disk_misses", Valid.Trace.Json.int t.n_disk_misses);
        ("inserts", Valid.Trace.Json.int t.n_inserts);
        ("evicted", Valid.Trace.Json.int t.n_evicted);
        ("corrupt_dropped", Valid.Trace.Json.int t.n_corrupt);
        ("file_bytes", Valid.Trace.Json.int (Option.value t.file_bytes ~default:0));
        ("appends", Valid.Trace.Json.int t.n_appends);
        ("compactions", Valid.Trace.Json.int t.n_compactions);
        ("flush_ms_total", Valid.Trace.Json.float t.flush_ms_total);
        ("flush_ms_max", Valid.Trace.Json.float t.flush_ms_max) ]
  in
  Mutex.unlock t.m;
  j
