(** The daemon's persistent analysis store.

    A size-bounded, integrity-checked, LRU-evicted on-disk mirror of
    the content-addressed semantic caches ([dep.verdict],
    [range_prop.env_at], [poly.of_expr], [compare.*] — every
    {!Symbolic.Cache} created with [~persist:true]).  Installed as the
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
    mismatch with intact framing skips one entry, a broken length field
    abandons the unreadable tail).  Dropping is always safe: a missing
    entry is a cache miss, and the compiler recomputes the fact —
    byte-identically, by the PR-3 soundness contract.

    {b Eviction.}  The store tracks a recency tick per entry (bumped on
    every lookup hit and insert).  When the byte total exceeds the
    bound ([--max-cache-mb]), least-recently-used entries are
    evicted — on insert (so one pathological session cannot balloon the
    daemon's memory) and again at {!flush} (so the file on disk never
    exceeds the bound either).

    {b Domain safety.}  Lookups and inserts arrive concurrently from
    {!Util.Pool} worker domains mid-phase; one mutex serializes all
    table access.  The critical sections are small (no marshaling
    happens under the lock — the cache layer passes ready bytes). *)

type entry = {
  mutable e_data : string;
  mutable e_tick : int;  (** recency: larger = more recently used *)
}

type t = {
  dir : string;
  path : string;
  max_bytes : int;
  tbl : (string * string, entry) Hashtbl.t;  (** (cache name, key bytes) *)
  m : Mutex.t;
  mutable tick : int;
  mutable bytes : int;  (** payload bytes currently held *)
  (* observability *)
  mutable n_disk_hits : int;     (** lookups served from the store *)
  mutable n_disk_misses : int;
  mutable n_loaded : int;        (** entries accepted at open *)
  mutable n_corrupt : int;       (** entries or files dropped by integrity checks *)
  mutable n_evicted : int;
  mutable n_inserts : int;
}

let magic = "POLARIS-STORE-v1\n"

(* Only load marshaled bytes written by this exact binary: any other
   build's type layout must not be trusted.  Computed once. *)
let exe_digest = lazy (Digest.file Sys.executable_name)

let file_name = "analysis.store"

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

(* Robust reader: returns the entries it could authenticate and the
   number it had to drop.  Any framing damage abandons the rest of the
   file (lengths can no longer be trusted); a digest mismatch with
   plausible framing drops that one entry and continues. *)
let load_file path : ((string * string * string * int) list * int) =
  match open_in_bin path with
  | exception Sys_error _ -> ([], 0)
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let len = in_channel_length ic in
    let header_len = String.length magic + 16 in
    if len < header_len then ([], if len = 0 then 0 else 1)
    else begin
      let head = really_input_string ic (String.length magic) in
      let dg = really_input_string ic 16 in
      if head <> magic || dg <> Lazy.force exe_digest then ([], 1)
      else begin
        let read_u32 () =
          let b () = Char.code (input_char ic) in
          let n = b () in
          let n = (n lsl 8) lor b () in
          let n = (n lsl 8) lor b () in
          (n lsl 8) lor b ()
        in
        let entries = ref [] and dropped = ref 0 in
        (try
           while pos_in ic < len do
             let name_len = read_u32 () in
             let name = really_input_string ic name_len in
             let key_len = read_u32 () in
             let key = really_input_string ic key_len in
             let data_len = read_u32 () in
             let data = really_input_string ic data_len in
             let tick = read_u32 () in
             let digest = really_input_string ic 16 in
             if Digest.string (name ^ key ^ data) = digest then
               entries := (name, key, data, tick) :: !entries
             else incr dropped
           done
         with End_of_file | Invalid_argument _ ->
           (* framing broke: the unreadable tail is one corruption event *)
           incr dropped);
        (List.rev !entries, !dropped)
      end
    end

let open_store ~dir ~max_bytes () : t =
  (if not (Sys.file_exists dir) then
     try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir file_name in
  let t =
    { dir; path; max_bytes; tbl = Hashtbl.create 4096; m = Mutex.create ();
      tick = 0; bytes = 0; n_disk_hits = 0; n_disk_misses = 0; n_loaded = 0;
      n_corrupt = 0; n_evicted = 0; n_inserts = 0 }
  in
  let entries, dropped = load_file path in
  t.n_corrupt <- dropped;
  List.iter
    (fun (name, key, data, tick) ->
      Hashtbl.replace t.tbl (name, key) { e_data = data; e_tick = tick };
      t.bytes <- t.bytes + entry_cost name key data;
      t.n_loaded <- t.n_loaded + 1;
      if tick > t.tick then t.tick <- tick)
    entries;
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
    e.e_tick <- t.tick
  | None ->
    Hashtbl.replace t.tbl (name, key) { e_data = data; e_tick = t.tick };
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
    means the on-disk store passed every digest — the crash-safety
    contract after an atomic-flush-only history (a torn write is
    impossible: flushes go through tmp+rename). *)
let corrupt_count t = t.n_corrupt

(* ------------------------------------------------------------------ *)
(* Flush                                                               *)

(** Write the store to disk atomically (temp file + rename), evicting
    LRU entries beyond the size bound first.  Safe to call at any
    sequential point; the daemon flushes on graceful shutdown and after
    every [Stats] request. *)
let flush t =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) @@ fun () ->
  evict_over_locked t ~budget:t.max_bytes;
  let tmp = t.path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc magic;
     output_string oc (Lazy.force exe_digest);
     let write_u32 n =
       output_char oc (Char.chr ((n lsr 24) land 0xff));
       output_char oc (Char.chr ((n lsr 16) land 0xff));
       output_char oc (Char.chr ((n lsr 8) land 0xff));
       output_char oc (Char.chr (n land 0xff))
     in
     Hashtbl.iter
       (fun (name, key) e ->
         write_u32 (String.length name);
         output_string oc name;
         write_u32 (String.length key);
         output_string oc key;
         write_u32 (String.length e.e_data);
         output_string oc e.e_data;
         write_u32 (e.e_tick land 0x7fffffff);
         output_string oc (Digest.string (name ^ key ^ e.e_data)))
       t.tbl;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp t.path

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
        ("corrupt_dropped", Valid.Trace.Json.int t.n_corrupt) ]
  in
  Mutex.unlock t.m;
  j
