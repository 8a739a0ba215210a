(* Cache soundness.  The compile-time caches (symbolic memo tables,
   loop range environments, dependence-verdict cache, COW pass guards)
   are pure performance levers: compiling with them enabled must be
   observationally identical to compiling with POLARIS_NO_CACHE=1 —
   same unparsed output, same per-loop verdicts, same oracle results.
   We pin that with a seeded property over random fuzz programs, and
   pin the same identity across fault rollbacks, where a stale hit on
   a discarded program state would show. *)

let cfg ~caches = { (Core.Config.polaris ()) with caches }

let verdicts (t : Core.Pipeline.t) =
  List.map
    (fun (l : Core.Pipeline.loop_result) ->
      ( l.unit_name,
        l.report.loop_index,
        l.report.parallel,
        l.report.speculative,
        l.report.reason ))
    t.loops

(* compile one fuzz program twice — caches on and caches off — and
   check every observable agrees *)
let check_seed ?(oracle = false) seed =
  let src = Test_fuzz.gen_program (Util.Prng.create seed) in
  let cached = Core.Pipeline.compile (cfg ~caches:true) src in
  let uncached = Core.Pipeline.compile (cfg ~caches:false) src in
  let same_output =
    String.equal
      (Core.Pipeline.output_source cached)
      (Core.Pipeline.output_source uncached)
  in
  let same_verdicts = verdicts cached = verdicts uncached in
  let same_oracle =
    (not oracle)
    ||
    let run (t : Core.Pipeline.t) =
      Valid.Oracle.differential ~procs_list:[ 2 ] ~seeds:[ seed land 0xff ]
        ~original:(Frontend.Parser.parse_string src)
        ~transformed:t.program ()
    in
    let rc = run cached and ru = run uncached in
    Valid.Oracle.equivalent rc = Valid.Oracle.equivalent ru
    && rc.checks = ru.checks
    && List.length rc.failures = List.length ru.failures
  in
  if not same_output then
    Printf.eprintf "seed %d: cached/uncached outputs diverge\n%!" seed;
  if not same_verdicts then
    Printf.eprintf "seed %d: cached/uncached verdicts diverge\n%!" seed;
  if not same_oracle then
    Printf.eprintf "seed %d: cached/uncached oracle reports diverge\n%!" seed;
  same_output && same_verdicts && same_oracle

(* 100 seeded random programs: byte-identical output and identical
   verdicts; every 10th seed additionally cross-checked under the
   differential execution oracle (it interprets the program, so we
   sample to keep the suite fast) *)
let test_property_100_seeds () =
  for seed = 1 to 100 do
    Alcotest.(check bool)
      (Printf.sprintf "seed %d" seed)
      true
      (check_seed ~oracle:(seed mod 10 = 0) seed)
  done

(* the registry codes are the programs the bench measures; pin them too *)
let test_suite_codes () =
  List.iter
    (fun (c : Suite.Code.t) ->
      let cached = Core.Pipeline.compile (cfg ~caches:true) c.source in
      let uncached = Core.Pipeline.compile (cfg ~caches:false) c.source in
      Alcotest.(check string)
        (c.name ^ " output")
        (Core.Pipeline.output_source uncached)
        (Core.Pipeline.output_source cached);
      Alcotest.(check bool)
        (c.name ^ " verdicts")
        true
        (verdicts cached = verdicts uncached))
    Suite.Registry.all

(* a cache that never hits when the suite is compiled twice is dead
   weight: a key-design bug (as the original generation+sid [env_at] key
   was), not a tuning matter.  Every registered cache is
   content-addressed, so every one must hit across the two compiles. *)
let test_no_dead_cache () =
  Util.Cachectl.clear_all ();
  for _ = 1 to 2 do
    List.iter
      (fun (c : Suite.Code.t) ->
        ignore (Core.Pipeline.compile (cfg ~caches:true) c.source))
      Suite.Registry.all
  done;
  Util.Cachectl.merge_shards ();
  let caches = Util.Cachectl.snapshot () in
  Alcotest.(check bool) "some registered caches" true (caches <> []);
  List.iter
    (fun (name, hits, misses) ->
      if hits = 0 then
        Alcotest.failf "dead cache %s: 0 hits in %d lookups" name misses)
    caches;
  Util.Cachectl.clear_all ()

(* Warm recompiles must not pin the IR of earlier compiles.  Statement
   ids are fresh in every compile, so a table keyed on them is never
   hit again once its compile is over, and each entry it keeps is dead
   IR for the life of the process — the daemon's and `polaris serve`'s.
   With the caches warm from three rounds of the 16 codes through the
   incremental path, ten more rounds may grow the live heap by at most
   10,000 words; per-statement memo tables grew it by about 250,000. *)
let test_warm_heap_flat () =
  let config = Core.Config.polaris () in
  let round () =
    List.iter
      (fun (c : Suite.Code.t) ->
        ignore (Core.Incremental.compile config c.source))
      Suite.Registry.all
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).live_words
  in
  Util.Cachectl.clear_all ();
  Fun.protect ~finally:Util.Cachectl.clear_all @@ fun () ->
  for _ = 1 to 3 do round () done;
  let before = live_words () in
  for _ = 1 to 10 do round () done;
  let growth = live_words () - before in
  if growth > 10_000 then
    Alcotest.failf "10 warm rounds grew the live heap by %d words" growth

(* Chains stay short as programs accumulate.  The daemon and `polaris
   serve` keep every semantic cache across compiles, so each distinct
   program adds keys, and programs that differ only in their PARAMETER
   values differ only deep inside their keys' range environments.  A
   hash that stops reading early puts such keys in one bucket, and every
   lookup then compares them along the chain: after the 16 codes and 50
   generated programs the polymorphic [Hashtbl.hash] left chains of 318
   in compare.eliminate and 178 in compare.monotonicity.  Each cache's
   hash must read its whole key, so no chain may pass 16.  *)
let with_parameters_bumped by source =
  let bump piece =
    (* " 48, NJ " -> " 48+by, NJ " : the integer after an '=' *)
    let n = String.length piece in
    let rec skip i = if i < n && piece.[i] = ' ' then skip (i + 1) else i in
    let rec digits i =
      if i < n && piece.[i] >= '0' && piece.[i] <= '9' then digits (i + 1) else i
    in
    let i = skip 0 in
    let j = digits i in
    String.sub piece 0 i
    ^ string_of_int (int_of_string (String.sub piece i (j - i)) + by)
    ^ String.sub piece j (n - j)
  in
  String.split_on_char '\n' source
  |> List.map (fun line ->
         let t = String.trim line in
         if String.length t < 9 || String.sub t 0 9 <> "PARAMETER" then line
         else
           match String.split_on_char '=' line with
           | head :: values -> String.concat "=" (head :: List.map bump values)
           | [] -> line)
  |> String.concat "\n"

let test_chains_stay_short () =
  let config = Core.Config.polaris () in
  let codes = Array.of_list Suite.Registry.all in
  let n = Array.length codes in
  let sources =
    List.map (fun (c : Suite.Code.t) -> c.source) Suite.Registry.all
    @ List.init 50 (fun i ->
          with_parameters_bumped ((i / n) + 1) codes.(i mod n).Suite.Code.source)
  in
  Alcotest.(check int) "distinct programs" (n + 50)
    (List.length (List.sort_uniq String.compare sources));
  Util.Cachectl.clear_all ();
  Fun.protect ~finally:Util.Cachectl.clear_all @@ fun () ->
  List.iter (fun src -> ignore (Core.Incremental.compile config src)) sources;
  let chains = Util.Cachectl.chains () in
  Alcotest.(check bool) "every symbolic cache reports its chains" true
    (List.length chains >= 5);
  List.iter
    (fun (name, longest) ->
      if longest > 16 then
        Alcotest.failf "%s: a chain of %d keys after %d programs" name longest
          (n + 50))
    chains

(* Range propagation walks each unit once: compiled cold, a program
   with three loops in one unit and none in the other looks
   range_prop.env_at up once in parallelize, for the unit with loops.
   A walk per loop looks it up three times. *)
let test_one_range_walk_per_unit () =
  let src =
    "      PROGRAM TWO\n\
     \      INTEGER I, J, K\n\
     \      REAL A(10), B(10, 10)\n\
     \      DO I = 1, 10\n\
     \        A(I) = I\n\
     \      END DO\n\
     \      DO J = 1, 10\n\
     \        DO K = 1, 10\n\
     \          B(K, J) = A(K) + J\n\
     \        END DO\n\
     \      END DO\n\
     \      PRINT *, A(1), B(1, 1)\n\
     \      END\n\
     \      SUBROUTINE NOLOOP(X)\n\
     \      REAL X\n\
     \      X = X + 1.0\n\
     \      END\n"
  in
  Util.Cachectl.clear_all ();
  Fun.protect ~finally:Util.Cachectl.clear_all @@ fun () ->
  let t = Core.Pipeline.compile (cfg ~caches:true) src in
  Alcotest.(check int) "three loops" 3 (List.length t.loops);
  let lookups =
    List.concat_map
      (fun (r : Core.Pipeline.pass_reuse) ->
        if r.pr_pass <> "parallelize" then []
        else
          List.filter_map
            (fun (name, hits, misses) ->
              if name = "range_prop.env_at" then Some (hits + misses) else None)
            r.pr_cache)
      t.reuse
  in
  Alcotest.(check (list int)) "one range_prop.env_at lookup" [ 1 ] lookups

(* the debug cross-check (POLARIS_CACHE_DEBUG): in debug mode every hit
   of a semantic cache is recomputed and compared, and a difference
   raises Debug_mismatch.  Compiling the 16 codes under both
   configurations, with the caches warm from a debug-off compile, must
   raise nothing (strict, so no pass guard can swallow it), must really
   cross-check hits of every semantic cache, and must emit what the
   debug-off compile emits. *)
let test_debug_cross_check () =
  let cross_checked =
    [ "poly.of_expr"; "compare.eliminate"; "compare.monotonicity";
      "range_prop.env_at"; "dep.verdict" ]
  in
  let compile_all () =
    List.concat_map
      (fun (c : Suite.Code.t) ->
        List.map
          (fun config ->
            let t = Core.Pipeline.compile ~strict:true config c.source in
            (c.name ^ " " ^ config.Core.Config.name, Core.Pipeline.output_source t))
          [ cfg ~caches:true; { (Core.Config.baseline ()) with caches = true } ])
      Suite.Registry.all
  in
  Util.Cachectl.clear_all ();
  let saved = !Util.Cachectl.debug in
  Fun.protect
    ~finally:(fun () ->
      Util.Cachectl.debug := saved;
      Util.Cachectl.clear_all ())
  @@ fun () ->
  Util.Cachectl.debug := false;
  let plain = compile_all () in
  let base = Util.Cachectl.snapshot () in
  Util.Cachectl.debug := true;
  let debugged = compile_all () in
  List.iter
    (fun (name, hits, _) ->
      if List.mem name cross_checked && hits = 0 then
        Alcotest.failf "debug mode cross-checked no hit of %s" name)
    (Util.Cachectl.delta ~base (Util.Cachectl.snapshot ()));
  List.iter2
    (fun (label, want) (_, got) -> Alcotest.(check string) label want got)
    plain debugged

(* a pass rolled back by an injected fault leaves cache entries
   computed from the discarded program state behind; none may be served
   afterwards.  Output, verdicts and incidents must match the uncached
   compile, with the caches cold and again warm from the first run. *)
let test_rollback_cached_vs_uncached () =
  let src = Test_fuzz.gen_program (Util.Prng.create 1996) in
  let fault_hook pass _ =
    if String.equal pass "constprop" then failwith "chaos: injected fault"
  in
  let compile caches = Core.Pipeline.compile ~fault_hook (cfg ~caches) src in
  Util.Cachectl.clear_all ();
  let uncached = compile false in
  Alcotest.(check bool) "incident recorded" true (uncached.incidents <> []);
  Alcotest.(check bool)
    "rolled back" true
    (List.for_all
       (fun (i : Core.Pipeline.incident) -> i.inc_rolled_back)
       uncached.incidents);
  List.iter
    (fun run ->
      let cached = compile true in
      Alcotest.(check string) (run ^ ": output")
        (Core.Pipeline.output_source uncached)
        (Core.Pipeline.output_source cached);
      Alcotest.(check bool) (run ^ ": verdicts") true
        (verdicts cached = verdicts uncached);
      Alcotest.(check bool) (run ^ ": incidents") true
        (cached.incidents = uncached.incidents))
    [ "cold caches"; "warm caches" ];
  Util.Cachectl.clear_all ()

(* full chaos harness run with the caches on: containment, attribution
   and the oracle must all still hold, with the same incidents and the
   same oracle verdict as the run with the caches off *)
let test_chaos_plan_with_caches () =
  Util.Cachectl.with_enabled true @@ fun () ->
  let _, source = List.hd (Valid.Chaos.default_sources ()) in
  let plan =
    { Valid.Chaos.pl_seed = 7;
      pl_injections = [ ("constprop", Valid.Chaos.Raise_exn) ];
      pl_zero_budget = false }
  in
  let outcome = Valid.Chaos.run_plan ~config:(cfg ~caches:true) plan source in
  Alcotest.(check bool) "outcome ok" true (Valid.Chaos.outcome_ok outcome);
  Alcotest.(check bool)
    "incident contained" true
    (outcome.oc_incidents <> []);
  let uncached =
    Util.Cachectl.with_enabled false @@ fun () ->
    Valid.Chaos.run_plan ~config:(cfg ~caches:false) plan source
  in
  Alcotest.(check bool) "incidents as uncached" true
    (outcome.oc_incidents = uncached.oc_incidents);
  Alcotest.(check bool) "oracle verdict as uncached" true
    (Option.map Valid.Oracle.equivalent outcome.oc_oracle
    = Option.map Valid.Oracle.equivalent uncached.oc_oracle)

(* budget replay plumbing: [afford] must not mutate, [used] must track
   spend — the cache hit path depends on both *)
let test_budget_afford_used () =
  let b = Util.Budget.create ~steps:10 () in
  Alcotest.(check int) "nothing used yet" 0 (Util.Budget.used b);
  Alcotest.(check bool) "can afford 5" true (Util.Budget.afford b 5);
  Alcotest.(check bool) "cannot afford 11" false (Util.Budget.afford b 11);
  Alcotest.(check bool) "afford did not spend" true (Util.Budget.used b = 0);
  Alcotest.(check bool) "afford did not exhaust" false (Util.Budget.exhausted b);
  ignore (Util.Budget.spend b 4 : bool);
  Alcotest.(check int) "used tracks spend" 4 (Util.Budget.used b);
  Alcotest.(check bool) "can afford remaining 6" true (Util.Budget.afford b 6);
  Alcotest.(check bool) "cannot afford 7" false (Util.Budget.afford b 7);
  ignore (Util.Budget.spend b 7 : bool);
  Alcotest.(check bool) "overspend is sticky" true (Util.Budget.exhausted b);
  Alcotest.(check bool) "exhausted affords nothing" false
    (Util.Budget.afford b 0)

let tests =
  [ ("cached vs uncached, 100 fuzz seeds", `Slow, test_property_100_seeds);
    ("cached vs uncached, suite codes", `Quick, test_suite_codes);
    ("no dead content-addressed cache", `Quick, test_no_dead_cache);
    ("debug cross-check, suite codes", `Quick, test_debug_cross_check);
    ("rollback: cached vs uncached", `Quick,
     test_rollback_cached_vs_uncached);
    ("chaos plan with caches on", `Quick, test_chaos_plan_with_caches);
    ("budget afford/used", `Quick, test_budget_afford_used);
    ("warm recompiles keep no earlier compile alive", `Quick,
     test_warm_heap_flat);
    ("chains stay short as programs accumulate", `Quick,
     test_chains_stay_short);
    ("one range walk per unit with loops", `Quick,
     test_one_range_walk_per_unit) ]
