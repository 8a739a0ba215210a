(* The compile daemon: wire protocol, persistent store (integrity +
   eviction), per-file error containment of serve sessions, and the
   daemon end to end over a real unix socket — including the graceful
   SIGTERM drain. *)

let smoke_source =
  "      PROGRAM SMOKE\n\
   \      INTEGER I, N\n\
   \      PARAMETER (N = 16)\n\
   \      REAL A(16), B(16)\n\
   \      DO I = 1, N\n\
   \        A(I) = I * 2.0\n\
   \      ENDDO\n\
   \      DO I = 1, N\n\
   \        B(I) = A(I) + 1.0\n\
   \      ENDDO\n\
   \      PRINT *, B(1)\n\
   \      END\n"

(* a second program with different facts to prove, so its compile
   inserts entries of its own *)
let smoke_source2 =
  "      PROGRAM SMOKE2\n\
   \      INTEGER I, J, N\n\
   \      PARAMETER (N = 24)\n\
   \      REAL C(24), D(24, 24)\n\
   \      DO I = 1, N\n\
   \        DO J = 1, N\n\
   \          D(J, I) = I + J * 0.5\n\
   \        ENDDO\n\
   \      ENDDO\n\
   \      DO I = 2, N\n\
   \        C(I) = D(I, I - 1) * 2.0\n\
   \      ENDDO\n\
   \      PRINT *, C(2)\n\
   \      END\n"

let tmp_name base =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "polaris-test-%d-%s" (Unix.getpid ()) base)

let rm_rf_dir dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let count_occurrences hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else go (i + 1) (if String.sub hay i nn = needle then acc + 1 else acc)
  in
  if nn = 0 then 0 else go 0 0

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)

let roundtrip_request r =
  Serve.Protocol.decode_request (Serve.Protocol.encode_request r)

let roundtrip_response r =
  Serve.Protocol.decode_response (Serve.Protocol.encode_response r)

let test_protocol_request_roundtrip () =
  let reqs =
    [ Serve.Protocol.Compile
        { cr_label = "a.f"; cr_source = smoke_source; cr_check = true;
          cr_baseline = false; cr_pipeline = "fast"; cr_backend = "f77-omp" };
      Serve.Protocol.Compile
        { cr_label = ""; cr_source = ""; cr_check = false; cr_baseline = true;
          cr_pipeline = ""; cr_backend = "" };
      Serve.Protocol.Stats; Serve.Protocol.Ping; Serve.Protocol.Shutdown ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "request round-trips" true (roundtrip_request r = r))
    reqs

let test_protocol_response_roundtrip () =
  let resps =
    [ Serve.Protocol.Compiled
        { co_label = "a.f"; co_output = "      END\n";
          co_verdicts = [ "MAIN DO I PARALLEL -- x"; "MAIN DO J serial -- y" ];
          co_incidents = 2; co_reuse_rate = 0.875; co_shared_hits = 13;
          co_shared_lookups = 21; co_wall_ms = 1.25;
          co_check_divergences = [ "output differs" ] };
      Serve.Protocol.Stats_reply "{\"requests\":3}";
      Serve.Protocol.Error_r "nope"; Serve.Protocol.Rejected "bad frame";
      Serve.Protocol.Busy; Serve.Protocol.Pong; Serve.Protocol.Bye ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "response round-trips" true
        (roundtrip_response r = r))
    resps

let test_protocol_rejects_malformed () =
  let malformed f = match f () with
    | exception Serve.Protocol.Malformed _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unknown request tag" true
    (malformed (fun () -> Serve.Protocol.decode_request "Zjunk"));
  Alcotest.(check bool) "empty request" true
    (malformed (fun () -> Serve.Protocol.decode_request ""));
  Alcotest.(check bool) "truncated compile payload" true
    (malformed (fun () -> Serve.Protocol.decode_request "C\000\000\000\005ab"));
  (* a valid payload with trailing garbage must not be silently accepted *)
  let valid = Serve.Protocol.encode_request Serve.Protocol.Stats in
  Alcotest.(check bool) "trailing bytes" true
    (malformed (fun () -> Serve.Protocol.decode_request (valid ^ "x")));
  (* an oversized frame length must be refused before allocation *)
  let buf = Buffer.create 8 in
  Buffer.add_string buf "\255\255\255\255rest";
  Alcotest.(check bool) "oversized frame length" true
    (malformed (fun () -> Serve.Protocol.peel buf))

(* the FNV-1a frame checksum: any single corrupted byte anywhere in a
   frame must be detected before the payload is decoded *)
let test_protocol_checksum_detects_flips () =
  let payload = Serve.Protocol.encode_request Serve.Protocol.Stats in
  let wire = Serve.Protocol.frame payload in
  for pos = 0 to String.length wire - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string wire in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      let buf = Buffer.create 64 in
      Buffer.add_bytes buf b;
      (* acceptable: checksum mismatch (Malformed) or a flipped length
         making the frame look incomplete (None).  Never a payload. *)
      match Serve.Protocol.peel buf with
      | Some _ ->
        Alcotest.fail
          (Printf.sprintf "flip at byte %d bit %d passed the checksum" pos bit)
      | None | (exception Serve.Protocol.Malformed _) -> ()
    done
  done;
  (* the clean frame still peels *)
  let buf = Buffer.create 64 in
  Buffer.add_string buf wire;
  Alcotest.(check bool) "clean frame peels" true
    (Serve.Protocol.peel buf = Some payload)

let test_protocol_peel_reassembles () =
  let p1 = Serve.Protocol.encode_request Serve.Protocol.Stats in
  let p2 =
    Serve.Protocol.encode_request
      (Serve.Protocol.Compile
         { cr_label = "x"; cr_source = "y"; cr_check = false;
           cr_baseline = false; cr_pipeline = ""; cr_backend = "" })
  in
  let wire = Serve.Protocol.frame p1 ^ Serve.Protocol.frame p2 in
  let buf = Buffer.create 64 in
  (* drip the bytes in: no frame until its last byte arrives, then both
     frames peel in order from the same buffer *)
  let got = ref [] in
  String.iter
    (fun ch ->
      Buffer.add_char buf ch;
      match Serve.Protocol.peel buf with
      | Some payload -> got := payload :: !got
      | None -> ())
    wire;
  Alcotest.(check int) "two frames" 2 (List.length !got);
  Alcotest.(check bool) "payloads in order" true (List.rev !got = [ p1; p2 ])

(* ------------------------------------------------------------------ *)
(* Persistent store                                                    *)

let test_store_roundtrip () =
  let dir = tmp_name "store-rt" in
  rm_rf_dir dir;
  let s = Serve.Store.open_store ~dir ~max_bytes:(1 lsl 20) () in
  Serve.Store.insert s ~name:"c1" ~key:"k1" ~data:"v1";
  Serve.Store.insert s ~name:"c1" ~key:"k2" ~data:"v2";
  Serve.Store.insert s ~name:"c2" ~key:"k1" ~data:"other";
  Alcotest.(check (option string)) "hit" (Some "v1")
    (Serve.Store.lookup s ~name:"c1" ~key:"k1");
  Alcotest.(check (option string)) "names are namespaces" (Some "other")
    (Serve.Store.lookup s ~name:"c2" ~key:"k1");
  Alcotest.(check (option string)) "miss" None
    (Serve.Store.lookup s ~name:"c1" ~key:"nope");
  Serve.Store.flush s;
  (* a different handle on the same directory sees everything *)
  let s2 = Serve.Store.open_store ~dir ~max_bytes:(1 lsl 20) () in
  Alcotest.(check int) "all entries reloaded" 3 (Serve.Store.entry_count s2);
  Alcotest.(check (option string)) "persisted across open" (Some "v2")
    (Serve.Store.lookup s2 ~name:"c1" ~key:"k2");
  rm_rf_dir dir

let flip_byte path pos =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.of_string (really_input_string ic n) in
  close_in ic;
  let pos = if pos < 0 then n + pos else pos in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_store_drops_corruption () =
  let dir = tmp_name "store-corrupt" in
  rm_rf_dir dir;
  let s = Serve.Store.open_store ~dir ~max_bytes:(1 lsl 20) () in
  for i = 1 to 10 do
    Serve.Store.insert s ~name:"c" ~key:(Printf.sprintf "k%d" i)
      ~data:(String.make 32 'x')
  done;
  Serve.Store.flush s;
  let path = Filename.concat dir "analysis.store" in
  (* garble the last entry's digest: that entry is dropped, the rest
     load fine *)
  flip_byte path (-1);
  let s2 = Serve.Store.open_store ~dir ~max_bytes:(1 lsl 20) () in
  Alcotest.(check int) "one entry dropped" 9 (Serve.Store.entry_count s2);
  (* truncate mid-entry: framing breaks, the tail is abandoned, the
     store still opens *)
  Serve.Store.flush s;
  let n = (Unix.stat path).st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (n - 10);
  Unix.close fd;
  let s3 = Serve.Store.open_store ~dir ~max_bytes:(1 lsl 20) () in
  Alcotest.(check bool) "truncated tail dropped, rest kept" true
    (Serve.Store.entry_count s3 < 10 && Serve.Store.entry_count s3 >= 1);
  (* corrupt the header: nothing written by "another binary" may be
     trusted — the whole file is discarded *)
  Serve.Store.flush s;
  flip_byte path 3;
  let s4 = Serve.Store.open_store ~dir ~max_bytes:(1 lsl 20) () in
  Alcotest.(check int) "corrupt header discards everything" 0
    (Serve.Store.entry_count s4);
  rm_rf_dir dir

(* end to end: a compile backed by a corrupted store must silently
   recompute the dropped facts and produce byte-identical output *)
let test_store_corruption_is_invisible () =
  let dir = tmp_name "store-invisible" in
  rm_rf_dir dir;
  let cfg = Core.Config.polaris ~procs:8 () in
  Util.Cachectl.clear_all ();
  let s = Serve.Store.open_store ~dir ~max_bytes:(1 lsl 20) () in
  let prev = Serve.Store.install s in
  let c1 = Serve.Local.compile_source cfg smoke_source in
  Serve.Store.flush s;
  Serve.Store.uninstall prev;
  (* flip bytes across the file: some entries survive, some don't *)
  let path = Filename.concat dir "analysis.store" in
  let size = (Unix.stat path).st_size in
  List.iter
    (fun frac -> flip_byte path (size * frac / 10))
    [ 4; 6; 8 ];
  Util.Cachectl.clear_all ();
  let s2 = Serve.Store.open_store ~dir ~max_bytes:(1 lsl 20) () in
  let prev2 = Serve.Store.install s2 in
  let c2 = Serve.Local.compile_source cfg smoke_source in
  Serve.Store.uninstall prev2;
  Util.Cachectl.clear_all ();
  let scratch = Core.Incremental.scratch cfg smoke_source in
  Alcotest.(check string) "store-backed output = scratch output"
    scratch.outcome.oc_output c2.lc_result.outcome.oc_output;
  Alcotest.(check string) "pre-corruption output agrees too"
    scratch.outcome.oc_output c1.lc_result.outcome.oc_output;
  Alcotest.(check bool) "verdicts identical" true
    (c1.lc_verdicts = c2.lc_verdicts
    && c2.lc_verdicts = Serve.Local.render_verdicts scratch.outcome);
  rm_rf_dir dir

let test_store_evicts_lru () =
  let dir = tmp_name "store-evict" in
  rm_rf_dir dir;
  (* a bound small enough that 50 ~72-byte entries cannot all fit *)
  let max_bytes = 1024 in
  let s = Serve.Store.open_store ~dir ~max_bytes () in
  for i = 1 to 50 do
    Serve.Store.insert s ~name:"c" ~key:(Printf.sprintf "key-%02d" i)
      ~data:(String.make 24 'd');
    (* keep key-01 hot: recency must protect it from eviction *)
    ignore (Serve.Store.lookup s ~name:"c" ~key:"key-01")
  done;
  Alcotest.(check bool) "evicted under the bound" true
    (Serve.Store.entry_count s < 50);
  Alcotest.(check (option string)) "hot entry survived LRU"
    (Some (String.make 24 'd'))
    (Serve.Store.lookup s ~name:"c" ~key:"key-01");
  Serve.Store.flush s;
  let size = (Unix.stat (Filename.concat dir "analysis.store")).st_size in
  Alcotest.(check bool) "flushed file respects the bound" true
    (size <= max_bytes + 64);
  let s2 = Serve.Store.open_store ~dir ~max_bytes () in
  Alcotest.(check bool) "reload stays bounded" true
    (Serve.Store.entry_count s2 <= Serve.Store.entry_count s);
  rm_rf_dir dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

(* the on-disk size of one entry: three u32-prefixed fields, a u32
   tick and a 16-byte digest *)
let framed (name, key, data) =
  4 + String.length name + 4 + String.length key + 4 + String.length data
  + 4 + 16

let flush_mode s =
  Serve.Store.flush s;
  (Serve.Store.last_flush s).fl_mode

let mode = Alcotest.testable
    (fun ppf m -> Format.pp_print_string ppf (Serve.Store.mode_name m)) ( = )

(* a garbled length field must cost a dropped tail, not an allocation
   of the length it claims (0xFFFFFFF0 bytes, 536 M words) *)
let test_store_rejects_garbled_length () =
  let dir = tmp_name "store-length" in
  rm_rf_dir dir;
  Unix.mkdir dir 0o755;
  let oc = open_out_bin (Filename.concat dir "analysis.store") in
  output_string oc Serve.Store.magic;
  output_string oc (Lazy.force Serve.Store.exe_digest);
  output_string oc "\xff\xff\xff\xf0";
  close_out oc;
  let before = (Gc.quick_stat ()).major_words in
  let s = Serve.Store.open_store ~dir ~max_bytes:(1 lsl 20) () in
  let grown = (Gc.quick_stat ()).major_words -. before in
  Alcotest.(check int) "no entry" 0 (Serve.Store.entry_count s);
  Alcotest.(check int) "the tail is one corruption" 1
    (Serve.Store.corrupt_count s);
  Alcotest.(check bool) "the claimed length was never allocated" true
    (grown < 1e6);
  rm_rf_dir dir

(* a flush appends what changed: the file keeps its inode and its old
   bytes and grows by exactly the new entries' framed size; a lookup
   hit is not a change, and with nothing dirty a flush writes nothing *)
let test_store_flush_appends () =
  let dir = tmp_name "store-append" in
  rm_rf_dir dir;
  let path = Filename.concat dir "analysis.store" in
  let s = Serve.Store.open_store ~dir ~max_bytes:(1 lsl 20) () in
  let insert s (name, key, data) = Serve.Store.insert s ~name ~key ~data in
  for i = 1 to 10 do
    insert s ("c", Printf.sprintf "k%d" i, String.make 32 'x')
  done;
  Alcotest.check mode "a new file is written whole" Serve.Store.Compacted
    (flush_mode s);
  let before = read_file path and inode = (Unix.stat path).st_ino in
  let added =
    [ ("c", "k11", "new"); ("d", "k1", "other cache"); ("c", "k3", "replaced") ]
  in
  List.iter (insert s) added;
  ignore (Serve.Store.lookup s ~name:"c" ~key:"k1");
  Alcotest.check mode "what changed is appended" Serve.Store.Appended
    (flush_mode s);
  let after = read_file path in
  Alcotest.(check int) "same inode" inode (Unix.stat path).st_ino;
  Alcotest.(check string) "old bytes kept" before
    (String.sub after 0 (String.length before));
  Alcotest.(check int) "grew by the new entries' frames"
    (List.fold_left (fun n e -> n + framed e) 0 added)
    (String.length after - String.length before);
  ignore (Serve.Store.lookup s ~name:"c" ~key:"k11");
  Alcotest.check mode "a hit is not dirty" Serve.Store.Unchanged
    (flush_mode s);
  Alcotest.(check int) "nothing written" (String.length after)
    (Unix.stat path).st_size;
  (* the appended replacement supersedes the old frame, and another
     handle on the clean file appends too *)
  let s2 = Serve.Store.open_store ~dir ~max_bytes:(1 lsl 20) () in
  Alcotest.(check int) "every entry once" 12 (Serve.Store.entry_count s2);
  Alcotest.(check int) "clean" 0 (Serve.Store.corrupt_count s2);
  Alcotest.(check (option string)) "the replacement wins" (Some "replaced")
    (Serve.Store.lookup s2 ~name:"c" ~key:"k3");
  insert s2 ("c", "k13", "more");
  Alcotest.check mode "a reopened clean file is appended to"
    Serve.Store.Appended (flush_mode s2);
  (* the first handle did not write the file it now finds: it rewrites
     it rather than append to it *)
  insert s ("c", "k14", "last");
  Alcotest.check mode "a file changed behind the store is compacted"
    Serve.Store.Compacted (flush_mode s);
  let s3 = Serve.Store.open_store ~dir ~max_bytes:(1 lsl 20) () in
  Alcotest.(check (pair int int)) "the store's own view, clean" (13, 0)
    (Serve.Store.entry_count s3, Serve.Store.corrupt_count s3);
  rm_rf_dir dir

(* nothing may follow a broken frame: the first flush after an open
   that dropped a torn tail compacts, so every later entry loads *)
let test_store_torn_tail_then_append () =
  let dir = tmp_name "store-torn" in
  rm_rf_dir dir;
  let path = Filename.concat dir "analysis.store" in
  let fill s lo hi =
    for i = lo to hi do
      Serve.Store.insert s ~name:"c" ~key:(Printf.sprintf "k%d" i)
        ~data:(String.make 32 'x')
    done
  in
  let s = Serve.Store.open_store ~dir ~max_bytes:(1 lsl 20) () in
  fill s 1 10;
  Serve.Store.flush s;
  fill s 11 15;
  Alcotest.check mode "appended" Serve.Store.Appended (flush_mode s);
  (* a crash mid-append: the last frame is torn *)
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd ((Unix.stat path).st_size - 10);
  Unix.close fd;
  let s2 = Serve.Store.open_store ~dir ~max_bytes:(1 lsl 20) () in
  Alcotest.(check int) "the torn entry is dropped" 14
    (Serve.Store.entry_count s2);
  Alcotest.(check int) "one corruption" 1 (Serve.Store.corrupt_count s2);
  fill s2 21 25;
  Alcotest.check mode "the first flush after damage compacts"
    Serve.Store.Compacted (flush_mode s2);
  let s3 = Serve.Store.open_store ~dir ~max_bytes:(1 lsl 20) () in
  Alcotest.(check int) "clean again" 0 (Serve.Store.corrupt_count s3);
  Alcotest.(check int) "every later entry loads" 19
    (Serve.Store.entry_count s3);
  for i = 21 to 25 do
    Alcotest.(check bool) "inserted after the damage" true
      (Serve.Store.lookup s3 ~name:"c" ~key:(Printf.sprintf "k%d" i) <> None)
  done;
  rm_rf_dir dir

(* replacing the same keys grows the file by appends until it would
   hold more than twice the live bytes; then the flush compacts it
   back to the live entries *)
let test_store_compacts_past_twice_live () =
  let dir = tmp_name "store-compact" in
  rm_rf_dir dir;
  let path = Filename.concat dir "analysis.store" in
  let s = Serve.Store.open_store ~dir ~max_bytes:(1 lsl 20) () in
  let round r =
    for i = 1 to 8 do
      Serve.Store.insert s ~name:"c" ~key:(Printf.sprintf "k%d" i)
        ~data:(String.make 64 (Char.chr (Char.code 'a' + r)))
    done
  in
  let size () = (Unix.stat path).st_size in
  let entry = ("c", "k1", String.make 64 'a') in
  let live_bytes = 8 * Serve.Store.entry_cost "c" "k1" (String.make 64 'a') in
  round 0;
  Serve.Store.flush s;
  let live_file = size () in
  let flushes =
    List.map
      (fun r ->
        round r;
        let m = flush_mode s in
        Alcotest.(check bool) "the entries stay within twice the live bytes"
          true
          (size () - Serve.Store.header_len <= 2 * live_bytes);
        (m, size ()))
      [ 1; 2 ]
  in
  Alcotest.(check (list (pair mode int))) "append, then compact"
    [ (Serve.Store.Appended, live_file + (8 * framed entry));
      (Serve.Store.Compacted, live_file) ]
    flushes;
  let s2 = Serve.Store.open_store ~dir ~max_bytes:(1 lsl 20) () in
  Alcotest.(check int) "the live entries" 8 (Serve.Store.entry_count s2);
  Alcotest.(check (option string)) "the latest data" (Some (String.make 64 'c'))
    (Serve.Store.lookup s2 ~name:"c" ~key:"k5");
  rm_rf_dir dir

(* ------------------------------------------------------------------ *)
(* Per-file error containment (the `polaris serve` discipline)         *)

let test_local_compile_path_contains_errors () =
  let cfg = Core.Config.polaris ~procs:8 () in
  (* unreadable path: an Error, not an exception *)
  (match Serve.Local.compile_path cfg "/nonexistent/nope.f" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unreadable path must be a per-file error");
  (* unparseable source: an Error naming the file *)
  let bad = tmp_name "bad.f" in
  let oc = open_out bad in
  output_string oc "      THIS IS NOT FORTRAN(\n";
  close_out oc;
  (match Serve.Local.compile_path cfg bad with
  | Error m ->
    Alcotest.(check bool) "error names the file" true
      (String.length m >= String.length bad
      && String.sub m 0 (String.length bad) = bad)
  | Ok _ -> Alcotest.fail "unparseable source must be a per-file error");
  Sys.remove bad;
  (* a good file still compiles *)
  let good = tmp_name "good.f" in
  let oc = open_out good in
  output_string oc smoke_source;
  close_out oc;
  (match Serve.Local.compile_path cfg good with
  | Ok c ->
    Alcotest.(check bool) "compile produced verdicts" true
      (c.lc_verdicts <> [])
  | Error m -> Alcotest.fail ("good file failed: " ^ m));
  Sys.remove good

(* ------------------------------------------------------------------ *)
(* Daemon end to end                                                   *)

let start_daemon ?(signals = false) ?(tweak = fun c -> c) ~socket ~store_dir
    () =
  let stop = Atomic.make false in
  let ready = Atomic.make false in
  let cfg =
    tweak
      { Serve.Daemon.default_cfg with
        d_socket = socket;
        d_store_dir = store_dir;
        d_poll_s = 0.02 }
  in
  let d =
    Domain.spawn (fun () ->
        Serve.Daemon.run ~signals ~stop
          ~on_ready:(fun () -> Atomic.set ready true)
          cfg)
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.002
  done;
  (d, stop)

(* The store tests need facts to store, so their daemons memoize
   whatever the ambient cache mode ([POLARIS_NO_CACHE]). *)
let caches_on (c : Serve.Daemon.cfg) =
  { c with d_config = { c.d_config with caches = true } }

(* the integer after the first ["key":] in a JSON text *)
let json_int json key =
  let needle = Printf.sprintf "\"%s\":" key in
  let nn = String.length needle in
  let rec find i =
    if i + nn > String.length json then
      Alcotest.failf "no %S in the stats reply" key
    else if String.sub json i nn = needle then i + nn
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while !stop < String.length json && json.[!stop] >= '0' && json.[!stop] <= '9'
  do
    incr stop
  done;
  int_of_string (String.sub json start (!stop - start))

let test_daemon_end_to_end () =
  let socket = tmp_name "e2e.sock" in
  let store_dir = tmp_name "e2e-store" in
  rm_rf_dir store_dir;
  Util.Cachectl.clear_all ();
  let d, _stop = start_daemon ~socket ~store_dir:(Some store_dir) () in
  (match Serve.Client.connect socket with
  | Error m -> Alcotest.fail m
  | Ok c ->
    (match Serve.Client.compile_source c ~check:true ~label:"smoke" smoke_source with
    | Ok r ->
      Alcotest.(check int) "two loop verdicts" 2 (List.length r.co_verdicts);
      Alcotest.(check bool) "server-side check passes" true
        (r.co_check_divergences = []);
      Alcotest.(check bool) "output is annotated Fortran" true
        (String.length r.co_output > 0)
    | Error m -> Alcotest.fail ("compile: " ^ m));
    (* a pipeline name (the pass order is fixed) and an unknown backend
       are application errors: answered, and the session lives on *)
    List.iter
      (fun (cr_pipeline, cr_backend, prefix) ->
        match
          Serve.Client.roundtrip c
            (Serve.Protocol.Compile
               { cr_label = prefix; cr_source = smoke_source; cr_check = false;
                 cr_baseline = false; cr_pipeline; cr_backend })
        with
        | Ok (Serve.Protocol.Error_r m) when String.starts_with ~prefix m -> ()
        | Ok _ -> Alcotest.failf "expected Error_r %S" prefix
        | Error m -> Alcotest.failf "%s: %s" prefix m)
      [ ("fast", "", "unknown pipeline 'fast'");
        ("", "rust", "unknown backend 'rust'") ];
    (match Serve.Client.stats c with
    | Ok json ->
      Alcotest.(check bool) "stats is a JSON object with requests" true
        (String.length json > 2 && json.[0] = '{');
      (* every flush that wrote something either appended or compacted;
         one with nothing dirty counts as neither *)
      Alcotest.(check bool) "appends + compactions <= flushes" true
        (json_int json "appends" + json_int json "compactions"
        <= json_int json "flushes");
      List.iter
        (fun key ->
          Alcotest.(check bool) ("store reports " ^ key) true
            (count_occurrences json (Printf.sprintf "\"%s\":" key) = 1))
        [ "file_bytes"; "flush_ms_total"; "flush_ms_max" ]
    | Error m -> Alcotest.fail ("stats: " ^ m));
    (match Serve.Client.shutdown c with
    | Ok () -> ()
    | Error m -> Alcotest.fail ("shutdown: " ^ m));
    Serve.Client.close c);
  let report = Domain.join d in
  Alcotest.(check bool) "graceful" true report.Serve.Daemon.r_graceful;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists socket);
  Alcotest.(check bool) "store flushed to disk" true
    (Sys.file_exists (Filename.concat store_dir "analysis.store"));
  rm_rf_dir store_dir;
  Util.Cachectl.clear_all ()

let test_daemon_contains_malformed_session () =
  let socket = tmp_name "malformed.sock" in
  Util.Cachectl.clear_all ();
  let d, stop = start_daemon ~socket ~store_dir:None () in
  (* session 1 speaks garbage: it gets an error and is closed alone *)
  (match Serve.Client.connect socket with
  | Error m -> Alcotest.fail m
  | Ok c ->
    Serve.Protocol.send c.Serve.Client.fd "Zjunk";
    (match Serve.Client.recv c with
    | Ok (Serve.Protocol.Rejected _) -> ()
    | Ok _ -> Alcotest.fail "expected Rejected for a malformed request"
    | Error m -> Alcotest.fail ("recv: " ^ m));
    (* the daemon closed this session after the protocol violation *)
    (match Serve.Client.recv c with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "session must be closed after a violation");
    Serve.Client.close c);
  (* the server itself is unharmed: a fresh session compiles fine *)
  (match Serve.Client.connect socket with
  | Error m -> Alcotest.fail m
  | Ok c ->
    (match Serve.Client.compile_source c ~label:"after" smoke_source with
    | Ok r -> Alcotest.(check int) "still serving" 2 (List.length r.co_verdicts)
    | Error m -> Alcotest.fail ("compile after violation: " ^ m));
    Serve.Client.close c);
  Atomic.set stop true;
  let report = Domain.join d in
  Alcotest.(check bool) "graceful stop" true report.Serve.Daemon.r_graceful;
  Util.Cachectl.clear_all ()

let test_daemon_sigterm_drains () =
  let socket = tmp_name "sigterm.sock" in
  let store_dir = tmp_name "sigterm-store" in
  rm_rf_dir store_dir;
  Util.Cachectl.clear_all ();
  let d, _stop = start_daemon ~signals:true ~socket ~store_dir:(Some store_dir) () in
  match Serve.Client.connect socket with
  | Error m -> Alcotest.fail m
  | Ok c ->
    (* an active session... *)
    (match Serve.Client.compile_source c ~label:"one" smoke_source with
    | Ok _ -> ()
    | Error m -> Alcotest.fail ("compile: " ^ m));
    (* ...with two more requests already in flight when the signal hits *)
    Serve.Client.send c
      (Serve.Protocol.Compile
         { cr_label = "two"; cr_source = smoke_source; cr_check = false;
           cr_baseline = false;
                 cr_pipeline = ""; cr_backend = "" });
    Serve.Client.send c
      (Serve.Protocol.Compile
         { cr_label = "three"; cr_source = smoke_source; cr_check = false;
           cr_baseline = false;
                 cr_pipeline = ""; cr_backend = "" });
    Unix.kill (Unix.getpid ()) Sys.sigterm;
    let report = Domain.join d in
    Alcotest.(check bool) "graceful under SIGTERM" true
      report.Serve.Daemon.r_graceful;
    (* both in-flight requests were drained and answered *)
    (match Serve.Client.recv c with
    | Ok (Serve.Protocol.Compiled r) ->
      Alcotest.(check string) "in-flight request two answered" "two" r.co_label
    | Ok _ | Error _ -> Alcotest.fail "request two was not drained");
    (match Serve.Client.recv c with
    | Ok (Serve.Protocol.Compiled r) ->
      Alcotest.(check string) "in-flight request three answered" "three"
        r.co_label
    | Ok _ | Error _ -> Alcotest.fail "request three was not drained");
    Serve.Client.close c;
    Alcotest.(check int) "all three requests served" 3
      report.Serve.Daemon.r_requests;
    Alcotest.(check bool) "store flushed on the way down" true
      (Sys.file_exists (Filename.concat store_dir "analysis.store"));
    Alcotest.(check bool) "socket removed" false (Sys.file_exists socket);
    rm_rf_dir store_dir;
    Util.Cachectl.clear_all ()

(* facts proved by one session must be served to the next from the
   persistent store: restart the daemon on the same store directory and
   require a majority of shared-cache lookups to hit *)
let test_daemon_store_warms_next_daemon () =
  let socket = tmp_name "warm.sock" in
  let store_dir = tmp_name "warm-store" in
  rm_rf_dir store_dir;
  Util.Cachectl.clear_all ();
  let d1, stop1 =
    start_daemon ~tweak:caches_on ~socket ~store_dir:(Some store_dir) ()
  in
  (match Serve.Client.connect socket with
  | Error m -> Alcotest.fail m
  | Ok c ->
    (match Serve.Client.compile_source c ~label:"cold" smoke_source with
    | Ok _ -> ()
    | Error m -> Alcotest.fail m);
    Serve.Client.close c);
  Atomic.set stop1 true;
  ignore (Domain.join d1);
  (* simulate a fresh daemon process: in-memory tables gone, disk kept *)
  Util.Cachectl.clear_all ();
  let d2, stop2 =
    start_daemon ~tweak:caches_on ~socket ~store_dir:(Some store_dir) ()
  in
  (match Serve.Client.connect socket with
  | Error m -> Alcotest.fail m
  | Ok c ->
    (match Serve.Client.compile_source c ~label:"warm" smoke_source with
    | Ok r ->
      Alcotest.(check bool) "warm compile hits the persisted store" true
        (r.co_shared_lookups > 0
        && float_of_int r.co_shared_hits
           >= 0.5 *. float_of_int r.co_shared_lookups)
    | Error m -> Alcotest.fail m);
    Serve.Client.close c);
  Atomic.set stop2 true;
  ignore (Domain.join d2);
  rm_rf_dir store_dir;
  Util.Cachectl.clear_all ()

(* ------------------------------------------------------------------ *)
(* Overload protection                                                 *)

let rec wait_for ~deadline f =
  f ()
  || Unix.gettimeofday () < deadline
     && begin
          Unix.sleepf 0.05;
          wait_for ~deadline f
        end

(* the head-of-line pin: a session that sends one byte of a frame and
   stalls forever must not delay anyone else beyond the poll interval *)
let test_daemon_stalled_client_no_hol () =
  let socket = tmp_name "stall.sock" in
  Util.Cachectl.clear_all ();
  let d, stop = start_daemon ~socket ~store_dir:None () in
  (match Serve.Client.connect socket with
  | Error m -> Alcotest.fail m
  | Ok a ->
    ignore (Unix.write_substring a.Serve.Client.fd "\000" 0 1);
    (* warm the caches once so the timed compile measures the server
       loop, not a cold analysis *)
    (match Serve.Client.connect socket with
    | Error m -> Alcotest.fail m
    | Ok w ->
      (match Serve.Client.compile_source w ~label:"warmup" smoke_source with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      Serve.Client.close w);
    (match Serve.Client.connect socket with
    | Error m -> Alcotest.fail m
    | Ok b ->
      let t0 = Unix.gettimeofday () in
      (match Serve.Client.compile_source b ~label:"b" smoke_source with
      | Ok r ->
        Alcotest.(check int) "B compiled behind the stall" 2
          (List.length r.co_verdicts)
      | Error m -> Alcotest.fail m);
      let dt = Unix.gettimeofday () -. t0 in
      (* generous pin: the 20ms poll plus a warm compile is well under
         a second; blocking on the stalled reader would hang forever *)
      Alcotest.(check bool)
        (Printf.sprintf "no head-of-line blocking (%.0f ms)" (1000.0 *. dt))
        true (dt < 2.0);
      Serve.Client.close b);
    Serve.Client.close a);
  Atomic.set stop true;
  let report = Domain.join d in
  Alcotest.(check bool) "graceful" true report.Serve.Daemon.r_graceful;
  Util.Cachectl.clear_all ()

(* a client that pipelines hundreds of compiles and never reads a byte
   must be evicted when its bounded write queue overflows — not hold
   its response bytes forever *)
let test_daemon_evicts_slow_reader () =
  let socket = tmp_name "slowreader.sock" in
  let max_sessions = 4 and max_wbuf = 8 * 1024 in
  Util.Cachectl.clear_all ();
  let d, stop =
    start_daemon ~socket ~store_dir:None
      ~tweak:(fun c ->
        { c with
          Serve.Daemon.d_max_sessions = max_sessions;
          d_max_wbuf = max_wbuf;
          d_sndbuf = Some 4096;
          d_max_pipeline = 8 })
      ()
  in
  (match Serve.Client.connect socket with
  | Error m -> Alcotest.fail m
  | Ok c ->
    (try
       for i = 1 to 400 do
         Serve.Client.send c
           (Serve.Protocol.Compile
              { cr_label = Printf.sprintf "r%d" i; cr_source = smoke_source;
                cr_check = false; cr_baseline = false;
                 cr_pipeline = ""; cr_backend = "" })
       done
     with Unix.Unix_error _ | Serve.Protocol.Malformed _ ->
       (* the daemon evicted us mid-send: exactly the point *)
       ());
    (* observe the eviction from a second session's stats *)
    let evicted () =
      match Serve.Client.connect socket with
      | Error _ -> false
      | Ok s ->
        Fun.protect ~finally:(fun () -> Serve.Client.close s) @@ fun () ->
        (match Serve.Client.stats s with
        | Ok json ->
          contains json "\"evicted_slow\":"
          && not (contains json "\"evicted_slow\":0,")
        | Error _ -> false)
    in
    Alcotest.(check bool) "slow reader evicted" true
      (wait_for ~deadline:(Unix.gettimeofday () +. 30.0) evicted);
    Serve.Client.close c);
  Atomic.set stop true;
  let report = Domain.join d in
  Alcotest.(check bool) "eviction counted" true
    (report.Serve.Daemon.r_evicted_slow >= 1);
  Alcotest.(check bool) "pending bytes were observed" true
    (report.Serve.Daemon.r_max_pending > 0);
  Alcotest.(check bool)
    (Printf.sprintf "pending bytes %d within %d sessions x %d"
       report.Serve.Daemon.r_max_pending max_sessions max_wbuf)
    true
    (report.Serve.Daemon.r_max_pending <= max_sessions * max_wbuf);
  Util.Cachectl.clear_all ()

(* the overload storm: honest clients compile the whole suite over
   per-request connections (retrying on Busy) while a staller holds a
   slot with half a frame and a chaos transport retries through flips,
   drops and tears, all against a daemon capped at three sessions.  The
   daemon must shed, evict the staller, keep queued response bytes
   bounded, and answer every honest request exactly as a from-scratch
   compile does. *)
let test_daemon_storm () =
  let socket = tmp_name "storm.sock" in
  let max_sessions = 3 and max_wbuf = 1 lsl 20 in
  let config = Core.Config.polaris ~procs:8 () in
  (* expectations first: from-scratch compiles clear the shared caches,
     so they must not race the daemon *)
  Util.Cachectl.clear_all ();
  let scratch =
    List.map
      (fun (c : Suite.Code.t) ->
        let r = Core.Incremental.scratch config c.source in
        (c.name, (r.outcome.oc_output, Serve.Local.render_verdicts r.outcome)))
      Suite.Registry.all
  in
  let chaos_sources =
    [ ("smoke", smoke_source); ("reduce", Test_chaosnet.reduce_source) ]
  in
  let chaos_expected = Serve.Chaosnet.expected_outputs config chaos_sources in
  Util.Cachectl.clear_all ();
  let d, stop =
    start_daemon ~socket ~store_dir:None
      ~tweak:(fun c ->
        { c with
          Serve.Daemon.d_poll_s = 0.01;
          d_max_sessions = max_sessions;
          d_max_wbuf = max_wbuf;
          d_idle_timeout_s = 1.0 })
      ()
  in
  let staller = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect staller (Unix.ADDR_UNIX socket);
  let wire =
    Serve.Protocol.frame (Serve.Protocol.encode_request Serve.Protocol.Stats)
  in
  ignore (Unix.write_substring staller wire 0 (String.length wire / 2));
  (* fill the other two slots; the pings guarantee the staller, accepted
     first, is counted.  A third client is now shed. *)
  let pinned =
    List.init (max_sessions - 1) (fun _ ->
        match Serve.Client.connect socket with
        | Error m -> Alcotest.fail m
        | Ok c ->
          (match Serve.Client.ping c with
          | Ok () -> c
          | Error m -> Alcotest.fail ("ping: " ^ m)))
  in
  (match Serve.Client.connect socket with
  | Error m -> Alcotest.fail m
  | Ok c ->
    (match Serve.Client.recv c with
    | Ok Serve.Protocol.Busy -> ()
    | Ok _ | Error _ -> Alcotest.fail "expected Busy with the staller at the cap");
    Serve.Client.close c);
  List.iter Serve.Client.close pinned;
  let honest =
    List.init 3 (fun k ->
        let n = List.length Suite.Registry.all in
        let order =
          List.init n (fun i -> List.nth Suite.Registry.all ((i + (5 * k)) mod n))
        in
        Domain.spawn (fun () ->
            List.map
              (fun (c : Suite.Code.t) ->
                match
                  Serve.Client.compile_retry ~retries:40 ~deadline_s:60.0
                    ~socket ~label:c.name c.source
                with
                | Ok reply -> Ok (c.name, reply)
                | Error m -> Error (c.name ^ ": " ^ m))
              order))
  in
  let sweep =
    Serve.Chaosnet.run_sweep ~first_seed:1 ~seeds:5 ~retries:16 ~deadline_s:5.0
      ~socket ~expected:chaos_expected chaos_sources
  in
  let replies = List.concat_map Domain.join honest in
  (* the staller must have been evicted: its fd sees EOF, not silence *)
  let staller_evicted =
    match Unix.select [ staller ] [] [] 10.0 with
    | [ _ ], _, _ -> Unix.read staller (Bytes.create 1) 0 1 = 0
    | _ -> false
  in
  Unix.close staller;
  Atomic.set stop true;
  let report = Domain.join d in
  List.iter
    (function
      | Error m -> Alcotest.fail ("honest request failed: " ^ m)
      | Ok (name, (r : Serve.Protocol.compile_reply)) ->
        let out, verdicts = List.assoc name scratch in
        Alcotest.(check string) (name ^ ": output as from scratch") out
          r.co_output;
        Alcotest.(check (list string)) (name ^ ": verdicts as from scratch")
          verdicts r.co_verdicts)
    replies;
  Alcotest.(check int) "every honest request answered"
    (3 * List.length Suite.Registry.all) (List.length replies);
  Alcotest.(check int) "chaos lane: no mismatched result" 0
    sweep.Serve.Chaosnet.sw_mismatched;
  Alcotest.(check int) "chaos lane: every client converged" 0
    sweep.Serve.Chaosnet.sw_gave_up;
  Alcotest.(check bool) "staller evicted (EOF observed)" true staller_evicted;
  Alcotest.(check bool) "graceful" true report.Serve.Daemon.r_graceful;
  Alcotest.(check bool) "shed counted" true (report.r_shed >= 1);
  Alcotest.(check bool) "idle eviction counted" true (report.r_evicted_idle >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "pending bytes %d within %d sessions x %d"
       report.r_max_pending max_sessions max_wbuf)
    true
    (report.r_max_pending <= max_sessions * max_wbuf);
  Util.Cachectl.clear_all ()

(* at the admission cap a new connection gets one Busy frame and is
   closed; once a session leaves, admission resumes *)
let test_daemon_sheds_at_session_cap () =
  let socket = tmp_name "busy.sock" in
  Util.Cachectl.clear_all ();
  let d, stop =
    start_daemon ~socket ~store_dir:None
      ~tweak:(fun c -> { c with Serve.Daemon.d_max_sessions = 1 })
      ()
  in
  (match Serve.Client.connect socket with
  | Error m -> Alcotest.fail m
  | Ok a ->
    (* the ping guarantees A is accepted and counted before B arrives *)
    (match Serve.Client.ping a with
    | Ok () -> ()
    | Error m -> Alcotest.fail ("ping: " ^ m));
    (match Serve.Client.connect socket with
    | Error m -> Alcotest.fail m
    | Ok b ->
      (match Serve.Client.recv b with
      | Ok Serve.Protocol.Busy -> ()
      | Ok _ -> Alcotest.fail "expected Busy at the session cap"
      | Error m -> Alcotest.fail ("recv: " ^ m));
      (* nothing follows the shed: the connection is closed *)
      (match Serve.Client.recv b with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "shed connection must be closed");
      Serve.Client.close b);
    Serve.Client.close a;
    (* with A gone, a new session is admitted again (the daemon notices
       the close on its next poll) *)
    let admitted () =
      match Serve.Client.connect socket with
      | Error _ -> false
      | Ok c ->
        Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
        Serve.Client.ping c = Ok ()
    in
    Alcotest.(check bool) "admission resumes after A leaves" true
      (wait_for ~deadline:(Unix.gettimeofday () +. 10.0) admitted));
  Atomic.set stop true;
  let report = Domain.join d in
  Alcotest.(check bool) "shed counted" true (report.Serve.Daemon.r_shed >= 1);
  Util.Cachectl.clear_all ()

let test_daemon_idle_timeout () =
  let socket = tmp_name "idle.sock" in
  Util.Cachectl.clear_all ();
  let d, stop =
    start_daemon ~socket ~store_dir:None
      ~tweak:(fun c -> { c with Serve.Daemon.d_idle_timeout_s = 0.15 })
      ()
  in
  (match Serve.Client.connect ~deadline_s:10.0 socket with
  | Error m -> Alcotest.fail m
  | Ok c ->
    (match Serve.Client.ping c with
    | Ok () -> ()
    | Error m -> Alcotest.fail ("ping: " ^ m));
    (* go quiet past the timeout: the daemon must hang up on us *)
    (match Serve.Client.recv c with
    | Error _ -> ()  (* EOF: evicted *)
    | Ok _ -> Alcotest.fail "idle session got an unsolicited response");
    Serve.Client.close c);
  Atomic.set stop true;
  let report = Domain.join d in
  Alcotest.(check bool) "idle eviction counted" true
    (report.Serve.Daemon.r_evicted_idle >= 1);
  Util.Cachectl.clear_all ()

(* ------------------------------------------------------------------ *)
(* Single-instance discipline and crash recovery                       *)

let test_daemon_pidfile_single_instance () =
  let socket = tmp_name "pidfile.sock" in
  Util.Cachectl.clear_all ();
  let d, stop = start_daemon ~socket ~store_dir:None () in
  (* a second daemon must refuse to stomp the live one's socket *)
  (match
     Serve.Daemon.run { Serve.Daemon.default_cfg with d_socket = socket }
   with
  | _ -> Alcotest.fail "second daemon must refuse a live socket"
  | exception Serve.Daemon.Already_running (pid, s) ->
    Alcotest.(check int) "pid names the owner" (Unix.getpid ()) pid;
    Alcotest.(check string) "socket named" socket s);
  Atomic.set stop true;
  ignore (Domain.join d);
  Alcotest.(check bool) "pidfile removed on clean exit" false
    (Sys.file_exists (socket ^ ".pid"));
  (* a stale pidfile — the SIGKILL leftover — must be recovered, not
     refused *)
  let oc = open_out (socket ^ ".pid") in
  output_string oc "4194303\n";
  close_out oc;
  Alcotest.(check bool) "dead pid probes stale" true
    (match Serve.Daemon.probe ~socket with
    | Serve.Daemon.Stale _ -> true
    | _ -> false);
  let d2, stop2 = start_daemon ~socket ~store_dir:None () in
  (match Serve.Daemon.probe ~socket with
  | Serve.Daemon.Live pid ->
    Alcotest.(check int) "recovered and live" (Unix.getpid ()) pid
  | _ -> Alcotest.fail "expected a live pidfile after recovery");
  Atomic.set stop2 true;
  ignore (Domain.join d2);
  Util.Cachectl.clear_all ()

(* the --log file must be appended across daemon lifetimes, and every
   startup must emit a restart event carrying the recovered entry count *)
let test_daemon_log_appends_restart_event () =
  let socket = tmp_name "logappend.sock" in
  let store_dir = tmp_name "logappend-store" in
  let log = tmp_name "logappend.jsonl" in
  rm_rf_dir store_dir;
  if Sys.file_exists log then Sys.remove log;
  Util.Cachectl.clear_all ();
  let tweak c = caches_on { c with Serve.Daemon.d_log = Some log } in
  let d1, stop1 = start_daemon ~tweak ~socket ~store_dir:(Some store_dir) () in
  (match Serve.Client.connect socket with
  | Error m -> Alcotest.fail m
  | Ok c ->
    (match Serve.Client.compile_source c ~label:"first" smoke_source with
    | Ok _ -> ()
    | Error m -> Alcotest.fail m);
    Serve.Client.close c);
  Atomic.set stop1 true;
  ignore (Domain.join d1);
  (* second lifetime on the same store and the same log *)
  Util.Cachectl.clear_all ();
  let d2, stop2 = start_daemon ~tweak ~socket ~store_dir:(Some store_dir) () in
  Atomic.set stop2 true;
  ignore (Domain.join d2);
  let ic = open_in log in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check int) "two restart events (append, not truncate)" 2
    (count_occurrences text "\"event\":\"restart\"");
  Alcotest.(check int) "both lifetimes logged listening" 2
    (count_occurrences text "\"event\":\"listening\"");
  (* the second restart recovered the first lifetime's flushed facts *)
  let after_second =
    let needle = "\"event\":\"restart\"" in
    let nn = String.length needle in
    let last = ref 0 in
    for i = 0 to String.length text - nn do
      if String.sub text i nn = needle then last := i
    done;
    String.sub text !last (String.length text - !last)
  in
  Alcotest.(check bool) "second restart recovered entries" true
    (contains after_second "\"recovered_entries\":"
    && not (contains after_second "\"recovered_entries\":0,"));
  (* each lifetime compacts its store on the way down *)
  let shutdown_flushes =
    List.filter
      (fun l -> contains l "\"reason\":\"shutdown\"")
      (String.split_on_char '\n' text)
  in
  Alcotest.(check int) "a flush logged at each shutdown" 2
    (List.length shutdown_flushes);
  Alcotest.(check bool) "each one compacts" true
    (List.for_all (fun l -> contains l "\"mode\":\"compact\"") shutdown_flushes);
  Sys.remove log;
  rm_rf_dir store_dir;
  Util.Cachectl.clear_all ()

(* SIGKILL mid-run: spawn the real binary, kill -9 it, restart it on
   the same store.  With --flush-every 1 the store is flushed before
   every reply, so everything a client saw answered survives; the
   restarted daemon must serve warm hits from an integrity-clean store.
   The first reply is covered by the file's first write, the second by
   an append to it.
   (A subprocess, not a fork: the OCaml 5 runtime with live worker
   domains cannot safely fork, and the store trusts only files written
   by the same executable.) *)
let polaris_exe = "../bin/polaris_cli.exe"

(* the daemon runs with its caches on, as [caches_on] sets them *)
let spawn_daemon_proc ~socket ?store_dir extra =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let store = match store_dir with Some d -> [ "--store"; d ] | None -> [] in
  let argv =
    Array.of_list
      (([ polaris_exe; "daemon"; "--socket"; socket ] @ store @ [ "-j"; "1" ])
      @ extra)
  in
  let env =
    Unix.environment () |> Array.to_list
    |> List.filter (fun kv ->
           not (String.starts_with ~prefix:"POLARIS_NO_CACHE=" kv))
    |> Array.of_list
  in
  let pid = Unix.create_process_env polaris_exe argv env null null null in
  Unix.close null;
  pid

(* a failed check must not leave the spawned daemon running *)
let killing_on_failure pid f =
  match f () with
  | () -> ()
  | exception e ->
    (try
       Unix.kill pid Sys.sigkill;
       ignore (Unix.waitpid [] pid)
     with Unix.Unix_error _ -> ());
    raise e

let test_daemon_sigkill_recovery () =
  let socket = tmp_name "sigkill.sock" in
  let store_dir = tmp_name "sigkill-store" in
  rm_rf_dir store_dir;
  (if Sys.file_exists socket then Sys.remove socket);
  (if Sys.file_exists (socket ^ ".pid") then Sys.remove (socket ^ ".pid"));
  let pid1 = spawn_daemon_proc ~socket ~store_dir [ "--flush-every"; "1" ] in
  killing_on_failure pid1 (fun () ->
  match Serve.Client.connect ~wait_s:30.0 socket with
  | Error m -> Alcotest.fail m
  | Ok c ->
    (match Serve.Client.compile_source c ~label:"one" smoke_source with
    | Ok r -> Alcotest.(check int) "compiled before the crash" 2
                (List.length r.co_verdicts)
    | Error m -> Alcotest.fail m);
    (match Serve.Client.compile_source c ~label:"two" smoke_source2 with
    | Ok r -> Alcotest.(check int) "second source compiled" 3
                (List.length r.co_verdicts)
    | Error m -> Alcotest.fail m);
    (match Serve.Client.stats c with
    | Ok json ->
      Alcotest.(check bool) "the second reply is covered by an append" true
        (contains json "\"appends\":1," && contains json "\"compactions\":1,")
    | Error m -> Alcotest.fail ("stats: " ^ m));
    Serve.Client.close c);
  (* the replies above are proof their facts were flushed (--flush-every
     1 flushes before the response is queued).  Now crash hard. *)
  Unix.kill pid1 Sys.sigkill;
  ignore (Unix.waitpid [] pid1);
  Alcotest.(check bool) "pidfile left behind by SIGKILL" true
    (Sys.file_exists (socket ^ ".pid"));
  Alcotest.(check bool) "store file survived" true
    (Sys.file_exists (Filename.concat store_dir "analysis.store"));
  (* restart on the same socket and store: the stale pidfile and socket
     are recovered, the store loads clean, and the compile is warm *)
  let pid2 = spawn_daemon_proc ~socket ~store_dir [] in
  killing_on_failure pid2 (fun () ->
  match Serve.Client.connect ~wait_s:30.0 socket with
  | Error m -> Alcotest.fail m
  | Ok c ->
    List.iter
      (fun (label, src) ->
        match Serve.Client.compile_source c ~label src with
        | Ok r ->
          Alcotest.(check bool) ("restarted daemon serves warm hits: " ^ label)
            true
            (r.co_shared_lookups > 0
            && float_of_int r.co_shared_hits
               >= 0.5 *. float_of_int r.co_shared_lookups)
        | Error m -> Alcotest.fail m)
      [ ("warm", smoke_source); ("warm2", smoke_source2) ];
    (match Serve.Client.stats c with
    | Ok json ->
      Alcotest.(check bool) "recovered store passed every integrity check"
        true
        (contains json "\"corrupt_dropped\":0")
    | Error m -> Alcotest.fail ("stats: " ^ m));
    (match Serve.Client.shutdown c with
    | Ok () -> ()
    | Error m -> Alcotest.fail ("shutdown: " ^ m));
    Serve.Client.close c);
  ignore (Unix.waitpid [] pid2);
  rm_rf_dir store_dir

(* A client that the admission cap sheds may find its connection closed
   before its request is written.  The real client must turn that
   failed write into a transient error that --retries retries, exit 1
   once the retries are spent, and exit 0 once the held session has
   left; a SIGPIPE must not kill it first.  Both sides are real
   processes, and the client starts with SIGPIPE at its default
   disposition: an in-process daemon ignores SIGPIPE for the whole test
   process, and a child would inherit that and hide the bug.  The
   source is padded with comment lines past the socket buffers, so a
   shed write fails even when it starts before the daemon closes. *)
let test_client_survives_shed () =
  let socket = tmp_name "shed.sock" in
  (if Sys.file_exists socket then Sys.remove socket);
  (if Sys.file_exists (socket ^ ".pid") then Sys.remove (socket ^ ".pid"));
  let src = tmp_name "shed.f" and out = tmp_name "shed.out" in
  let oc = open_out src in
  for i = 1 to 16_384 do
    Printf.fprintf oc "C     padding line %05d of a request larger than a socket buffer\n" i
  done;
  output_string oc smoke_source;
  close_out oc;
  let run_client () =
    let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
    let fd =
      Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    let argv =
      [| polaris_exe; "client"; "--socket"; socket; "--retries"; "1";
         "--timeout"; "10"; src |]
    in
    let prev = Sys.signal Sys.sigpipe Sys.Signal_default in
    let pid =
      Fun.protect
        ~finally:(fun () ->
          Sys.set_signal Sys.sigpipe prev;
          Unix.close null;
          Unix.close fd)
        (fun () -> Unix.create_process polaris_exe argv null fd fd)
    in
    let _, status = Unix.waitpid [] pid in
    let ic = open_in_bin out in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    (status, text)
  in
  let fail_status what status text =
    match status with
    | Unix.WEXITED n -> Alcotest.failf "%s: client exited %d:\n%s" what n text
    | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Alcotest.failf "%s: client killed by %s:\n%s" what
        (if n = Sys.sigpipe then "SIGPIPE" else string_of_int n)
        text
  in
  let daemon = spawn_daemon_proc ~socket [ "--max-sessions"; "1" ] in
  (* SIGTERM, not a Shutdown request: at the cap that would be shed *)
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill daemon Sys.sigterm with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] daemon) with Unix.Unix_error _ -> ());
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ src; out ])
  @@ fun () ->
  (match Serve.Client.connect ~wait_s:30.0 socket with
  | Error m -> Alcotest.fail m
  | Ok held ->
    (* the ping guarantees the held session is admitted and counted *)
    (match Serve.Client.ping held with
    | Ok () -> ()
    | Error m -> Alcotest.fail ("ping: " ^ m));
    (match run_client () with
    | Unix.WEXITED 1, text ->
      Alcotest.(check bool) "shed client gives up after its retries" true
        (contains text "giving up")
    | status, text -> fail_status "at the session cap" status text);
    Serve.Client.close held);
  (* the daemon notices the held session's close on its next turn; until
     then a run may still be shed, and must still exit 1 *)
  let rec admitted n =
    match run_client () with
    | Unix.WEXITED 0, _ -> ()
    | Unix.WEXITED 1, _ when n > 1 ->
      Unix.sleepf 0.1;
      admitted (n - 1)
    | status, text -> fail_status "after the held session left" status text
  in
  admitted 50

(* ------------------------------------------------------------------ *)
(* Pipelined sessions                                                  *)

(* a distinct program per request, so a cross-wired response would be
   caught by both the label and the compiled output *)
let pipelined_src tag =
  let n = 8 + (tag mod 5) in
  Printf.sprintf
    "      PROGRAM P%d\n\
     \      INTEGER I\n\
     \      REAL A(%d), B(%d)\n\
     \      DO I = 1, %d\n\
     \        A(I) = I * %d.0\n\
     \      ENDDO\n\
     \      DO I = 1, %d\n\
     \        B(I) = A(I) + 1.0\n\
     \      ENDDO\n\
     \      PRINT *, B(1)\n\
     \      END\n"
    tag n n n (1 + tag) n

(* several sessions pipeline all their requests up front, each ending
   with a server-side --check compile (which clears the shared caches
   mid-stream); replies are then read back one session at a time and
   must arrive in request order *)
let test_daemon_pipelined_sessions () =
  let socket = tmp_name "pipelined.sock" in
  let nsessions = 3 and nreqs = 4 in
  let label s i = Printf.sprintf "s%d-r%d" s i in
  Util.Cachectl.clear_all ();
  let d, stop = start_daemon ~socket ~store_dir:None () in
  let conns =
    List.init nsessions (fun s ->
        match Serve.Client.connect socket with
        | Ok c -> (s, c)
        | Error m -> Alcotest.fail m)
  in
  let compile_req s i ~check =
    Serve.Protocol.Compile
      { cr_label = label s i;
        cr_source = pipelined_src ((s * nreqs) + if check then 1 else i);
        cr_check = check; cr_baseline = false; cr_pipeline = "";
        cr_backend = "" }
  in
  List.iter
    (fun (s, c) ->
      for i = 0 to nreqs - 1 do
        Serve.Client.send c (compile_req s i ~check:false)
      done;
      Serve.Client.send c (compile_req s nreqs ~check:true))
    conns;
  List.iter
    (fun (s, c) ->
      for i = 0 to nreqs do
        match Serve.Client.recv c with
        | Ok (Serve.Protocol.Compiled r) ->
          Alcotest.(check string) "reply order preserved" (label s i)
            r.co_label;
          Alcotest.(check (list string)) "no check divergences" []
            r.co_check_divergences
        | Ok _ -> Alcotest.fail "expected a Compiled response"
        | Error m -> Alcotest.fail ("recv: " ^ m)
      done;
      Serve.Client.close c)
    conns;
  Atomic.set stop true;
  let report = Domain.join d in
  Alcotest.(check int) "daemon served every request"
    (nsessions * (nreqs + 1))
    report.Serve.Daemon.r_requests;
  Util.Cachectl.clear_all ()

(* the daemon's budget reaches every loop verdict, of baseline requests
   too: a daemon with one step of fuel answers exactly what a local
   compile under that budget does, and parallelizes fewer loops than an
   unbudgeted daemon *)
let test_daemon_budget_reaches_verdicts () =
  let socket = tmp_name "budget.sock" in
  let budgeted = { (Core.Config.polaris ()) with budget_steps = 1 } in
  let serve config ~baseline =
    Util.Cachectl.clear_all ();
    let d, stop =
      start_daemon
        ~tweak:(fun c -> { c with Serve.Daemon.d_config = config })
        ~socket ~store_dir:None ()
    in
    let verdicts =
      match Serve.Client.connect socket with
      | Error m -> Alcotest.fail m
      | Ok c ->
        let vs =
          List.map
            (fun (code : Suite.Code.t) ->
              match
                Serve.Client.compile_source c ~baseline ~label:code.name
                  code.source
              with
              | Ok r -> r.co_verdicts
              | Error m -> Alcotest.failf "%s: %s" code.name m)
            Suite.Registry.all
        in
        Serve.Client.close c;
        vs
    in
    Atomic.set stop true;
    ignore (Domain.join d);
    verdicts
  in
  (* cold, as [serve] starts its daemon: debug mode recomputes every
     hit and spends budget again, so both sides must make the same
     lookups *)
  let local config =
    Util.Cachectl.clear_all ();
    List.map
      (fun (code : Suite.Code.t) ->
        (Serve.Local.compile_source config code.source).lc_verdicts)
      Suite.Registry.all
  in
  let parallel vs =
    List.length
      (List.filter
         (fun l -> List.nth (String.split_on_char ' ' l) 3 = "PARALLEL")
         (List.concat vs))
  in
  let daemon_budgeted = serve budgeted ~baseline:false in
  Alcotest.(check (list (list string)))
    "budgeted daemon = local compile under the budget" (local budgeted)
    daemon_budgeted;
  Alcotest.(check (list (list string)))
    "baseline request keeps the daemon's budget"
    (local { (Core.Config.baseline ()) with budget_steps = 1 })
    (serve budgeted ~baseline:true);
  let budgeted_par = parallel daemon_budgeted in
  let unbudgeted_par =
    parallel (serve (Core.Config.polaris ()) ~baseline:false)
  in
  if budgeted_par >= unbudgeted_par then
    Alcotest.failf "budget had no effect: %d parallel loops, %d unbudgeted"
      budgeted_par unbudgeted_par;
  Util.Cachectl.clear_all ()

let tests =
  [ ("protocol request roundtrip", `Quick, test_protocol_request_roundtrip);
    ("protocol response roundtrip", `Quick, test_protocol_response_roundtrip);
    ("protocol rejects malformed", `Quick, test_protocol_rejects_malformed);
    ("protocol checksum detects every bit flip", `Quick,
     test_protocol_checksum_detects_flips);
    ("protocol peel reassembles partial frames", `Quick,
     test_protocol_peel_reassembles);
    ("store roundtrip through disk", `Quick, test_store_roundtrip);
    ("store drops corrupt entries", `Quick, test_store_drops_corruption);
    ("store corruption invisible to compiles", `Quick,
     test_store_corruption_is_invisible);
    ("store evicts LRU under its bound", `Quick, test_store_evicts_lru);
    ("serve session contains per-file errors", `Quick,
     test_local_compile_path_contains_errors);
    ("daemon end to end", `Quick, test_daemon_end_to_end);
    ("daemon contains malformed sessions", `Quick,
     test_daemon_contains_malformed_session);
    ("daemon drains in-flight requests on SIGTERM", `Quick,
     test_daemon_sigterm_drains);
    ("daemon store warms the next daemon", `Quick,
     test_daemon_store_warms_next_daemon);
    ("daemon survives a stalled client (no head-of-line)", `Quick,
     test_daemon_stalled_client_no_hol);
    ("daemon evicts a slow reader at the write-queue bound", `Quick,
     test_daemon_evicts_slow_reader);
    ("daemon sheds Busy at the session cap", `Quick,
     test_daemon_sheds_at_session_cap);
    ("daemon storm: staller and chaos beside honest clients at the cap",
     `Quick, test_daemon_storm);
    ("daemon evicts idle sessions", `Quick, test_daemon_idle_timeout);
    ("daemon pidfile: refuse live, recover stale", `Quick,
     test_daemon_pidfile_single_instance);
    ("daemon log appends and marks restarts", `Quick,
     test_daemon_log_appends_restart_event);
    ("daemon SIGKILL: restart recovers the flushed store", `Quick,
     test_daemon_sigkill_recovery);
    ("client exits 1 when shed, not by SIGPIPE", `Quick,
     test_client_survives_shed);
    ("daemon pipelined sessions in order", `Quick,
     test_daemon_pipelined_sessions);
    ("daemon budget reaches every loop verdict", `Quick,
     test_daemon_budget_reaches_verdicts);
    ("store rejects a garbled length without allocating it", `Quick,
     test_store_rejects_garbled_length);
    ("store flush appends what changed", `Quick, test_store_flush_appends);
    ("store compacts the first flush after a torn tail", `Quick,
     test_store_torn_tail_then_append);
    ("store compacts past twice the live bytes", `Quick,
     test_store_compacts_past_twice_live) ]
