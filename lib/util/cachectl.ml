(** Control plane for the compile-time caches.

    Five memo tables, every one a [Symbolic.Cache] — [Poly.of_expr],
    the two [Symbolic.Compare] proof tables, the [Range_prop] loop
    environments and the [Dep.Driver] verdicts — answer to this
    module:

    - {!enabled} is the master switch.  [POLARIS_NO_CACHE=1] in the
      environment turns every cache off (the baseline the cache
      tests compare against); [Core.Config.caches] scopes the
      switch per compilation.
    - There is no invalidation: every cache is content-addressed (its
      key determines its fact) and none reads mutable IR, so a pass
      rewrite or a fault rollback can never be served a stale fact.
    - {!debug} ([POLARIS_CACHE_DEBUG=1]) makes every cache hit
      cross-check against a fresh computation and raise
      {!Debug_mismatch} on divergence; this is the belt-and-braces mode
      used while developing new caches (note it recomputes, so budget
      accounting is no longer identical to the uncached compiler).
    - {!register} gives each cache a hit/miss counter and a clear hook;
      [Valid.Trace] reports the counters, and the tests and the
      benchmark reset the tables between compiles via {!clear_all}.

    Soundness contract: a cache may only consult its table when
    [!enabled] is true, must key on content (never on a statement id
    or a physical record, whose fact a rewrite could change), and —
    when the computation spends from a {!Budget} — must record the step
    cost and replay it on hits ([Budget.afford] + [Budget.spend]) so
    cached and uncached runs make byte-identical budget decisions. *)

(* hit/miss counters are atomics: during a parallel phase ({!Pool})
   every worker domain bumps them concurrently.  They are telemetry,
   not semantics — the cached values themselves are never shared
   mid-phase (per-slot shards, see {!merge_shards}). *)
type stats = {
  cs_name : string;
  cs_hits : int Atomic.t;
  cs_misses : int Atomic.t;
}

exception Debug_mismatch of string
(** Raised in {!debug} mode when a cache hit disagrees with a fresh
    computation; the payload names the offending cache. *)

(* environment knobs are parsed and validated in {!Env}, the single
   parse site for POLARIS_* variables *)
let default_enabled = not Env.no_cache
let enabled = ref default_enabled
let debug = ref Env.cache_debug

(* ------------------------------------------------------------------ *)
(* Backing store (the compile daemon's persistent analysis store)      *)

(** A second-level store behind the content-addressed caches.  Keys and
    values are opaque byte strings (the cache layer marshals them); the
    [name] namespaces entries per cache.  Installed by
    [Serve.Store.install] when a daemon runs with [--store];
    absent in ordinary one-shot compiles.  Implementations must be
    domain-safe: during a parallel phase worker domains look up and
    insert concurrently. *)
type backing = {
  bk_lookup : name:string -> key:string -> string option;
  bk_insert : name:string -> key:string -> data:string -> unit;
}

let backing : backing option ref = ref None

(** Install (or with [None] remove) the process-wide backing store. *)
let set_backing b = backing := b

type entry = {
  e_stats : stats;
  e_clear : unit -> unit;
  e_merge : unit -> unit;
  e_persist : bool;
  e_chain : unit -> int;
}

let registry : entry list ref = ref []

(** [register ~name ~clear] enrolls a cache: returns its counters and
    remembers [clear] for {!clear_all}.  [merge] folds the cache's
    per-slot shard tables into its shared store; the domain pool calls
    {!merge_shards} at the end of every parallel phase.  [persist]
    declares that the cache mirrors its entries to the {!backing}
    store, to be reloaded by a later process: they must be
    content-addressed pure data.  A cache whose facts a restarted
    process seldom reads back leaves it false, so its misses pay no
    marshalling and its entries take no room in the store.  [chain]
    reports the longest bucket chain of the cache's shared table
    ({!chains}). *)
let register ~name ~merge ~persist ~chain ~clear () =
  let s =
    { cs_name = name; cs_hits = Atomic.make 0; cs_misses = Atomic.make 0 }
  in
  registry :=
    !registry @ [ { e_stats = s; e_clear = clear; e_merge = merge;
                    e_persist = persist; e_chain = chain } ];
  s

(** Names of the caches registered with [~persist:true] — the set the
    daemon's persistent store shares across sessions and processes. *)
let persistent_names () =
  List.filter_map
    (fun e -> if e.e_persist then Some e.e_stats.cs_name else None)
    !registry

(** [(name, longest chain)] of every cache: how many keys the worst
    lookup may compare.  It stays small only while the cache's hash
    reads the whole key. *)
let chains () = List.map (fun e -> (e.e_stats.cs_name, e.e_chain ())) !registry

let hit s = Atomic.incr s.cs_hits
let miss s = Atomic.incr s.cs_misses

(** Fold every cache's per-slot shards into its shared store.  Only
    sound at a sequential point (no task running); {!Util.Pool.map}
    calls it after each batch, on the submitting domain. *)
let merge_shards () = List.iter (fun e -> e.e_merge ()) !registry

(** Current counters of every registered cache, as
    [(name, hits, misses)]. *)
let snapshot () =
  List.map
    (fun e ->
      (e.e_stats.cs_name, Atomic.get e.e_stats.cs_hits,
       Atomic.get e.e_stats.cs_misses))
    !registry

(** [delta ~base now]: per-cache counter growth since [base] (caches
    registered after [base] count from zero). *)
let delta ~base now =
  List.map
    (fun (name, h, m) ->
      match List.find_opt (fun (n, _, _) -> n = name) base with
      | Some (_, h0, m0) -> (name, h - h0, m - m0)
      | None -> (name, h, m))
    now

(** Empty every registered cache and zero its counters. *)
let clear_all () =
  List.iter
    (fun e ->
      e.e_clear ();
      Atomic.set e.e_stats.cs_hits 0;
      Atomic.set e.e_stats.cs_misses 0)
    !registry

(** [with_enabled b f] runs [f ()] with the master switch forced to
    [b], restoring the previous value on exit (including exceptions). *)
let with_enabled b f =
  let saved = !enabled in
  enabled := b;
  Fun.protect ~finally:(fun () -> enabled := saved) f
