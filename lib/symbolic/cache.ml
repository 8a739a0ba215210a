(** Memoization tables for the symbolic layer (and the dependence
    driver, which reuses them through this module).

    Every table is content-addressed: the key determines the result,
    so an entry can never go stale and there is nothing to invalidate.
    Two disciplines:

    - {!Make.memo}: plain memoization of a pure function.  Sound
      whenever the key determines the result and the result is
      immutable — e.g. [Poly.of_expr], whose input is an immutable
      expression tree, or [Range_prop.loop_envs], keyed on the unit's
      content fingerprint.
    - {!Make.memo_budgeted}: memoization of a computation that spends
      from a {!Util.Budget}.  Entries record the step cost of the
      original computation; a hit is taken only when the recorded cost
      is affordable ({!Util.Budget.afford}) and then replays the exact
      spend, so budget exhaustion fires at the same point whether or not
      the cache is warm.  Computations that ran under (or into)
      exhaustion are never cached — they recompute honestly, exactly as
      the uncached compiler would.

    {b Domain safety.}  During a parallel phase ({!Util.Pool.map}) the
    shared table is treated as {e read-only}: a task (identified by its
    {!Util.Pool.slot}) records misses in a private per-slot shard table
    and looks keys up {e shard-first}, falling back to the read-mostly
    shared tier.  When the batch ends the pool calls
    {!Util.Cachectl.merge_shards} at a sequential point and the shards
    are promoted into the shared store
    ([replace]: a shard entry supersedes a shared one — values for
    equal keys are equal by the purity discipline, so the choice is
    invisible).  The only cross-domain nondeterminism is {e which}
    lookups hit — and hits and misses yield identical values and
    identical budget decisions, so only wall time can differ.

    All lookups are gated on {!Util.Cachectl.enabled}; in
    {!Util.Cachectl.debug} mode every hit is cross-checked against a
    fresh computation and {!Util.Cachectl.Debug_mismatch} is raised on
    divergence by structural equality (the debug recomputation may
    spend extra budget, so debug runs trade exact budget accounting for
    the stronger check).

    {b Hashing.}  Each cache is an instance of {!Make} over its key
    type, which supplies a hash of the {e whole} key ({!KEY}).  The
    polymorphic [Hashtbl.hash] reads only ten meaningful words, so keys
    that differ deep inside a polynomial or a range environment would
    share a bucket, and lookups would compare keys along chains that
    grow with every distinct program a long-lived process compiles.
    Keys are compared structurally ([compare a b = 0]), so a weak hash
    can only cost time, never change an answer. *)

open Util

(** A cache's key type and its hash.  [hash] must be a function of the
    key's content alone — never of an address, and with no [Marshal] —
    and keys that [compare] equal must hash equal.  It should read the
    whole key (the heavy parts, a polynomial or a range environment,
    through {!Poly.hash} and {!Range.hash}). *)
module type KEY = sig
  type t

  val hash : t -> int
end

module Make (K : KEY) = struct
  (* A key with its hash, computed once per memo call: the shard and
     shared-tier lookups and the insert all reuse it, and comparing the
     hashes first rejects a chain neighbour without walking its key. *)
  type hashed = { h : int; k : K.t }

  module H = Hashtbl.Make (struct
    type t = hashed

    let equal a b = a.h = b.h && compare a.k b.k = 0
    let hash a = a.h
  end)

  type 'v t = {
    name : string;
    persist : bool;
    table : 'v H.t;
        (** shared store; read-only while a parallel phase is running *)
    shards : 'v H.t option array;
        (** per-{!Util.Pool.slot} miss tables, created on demand during
            a phase and drained by the registered merge hook *)
    stats : Cachectl.stats;
  }

  (** [create ~name ~persist ()] registers the cache with
      {!Util.Cachectl} under [name].  [persist] declares that its
      entries are mirrored to the {!Util.Cachectl.backing} store (the
      daemon's) and reloaded by a {e different process}: keys and
      entries must then be pure data free of physical pointers and
      statement ids, so only keys that fingerprint the IR content
      qualify.  Declare it only for facts a restarted process reads
      back often enough to pay for the store's marshalling and bytes. *)
  let create ~name ~persist () =
    let table = H.create 1024 in
    let shards = Array.make Pool.max_jobs None in
    let clear_shards () = Array.fill shards 0 (Array.length shards) None in
    let merge () =
      Array.iter
        (function
          | None -> ()
          | Some sh -> H.iter (fun k v -> H.replace table k v) sh)
        shards;
      clear_shards ()
    in
    let stats =
      Cachectl.register ~name ~merge ~persist
        ~chain:(fun () -> (H.stats table).Hashtbl.max_bucket_length)
        ~clear:(fun () ->
          H.reset table;
          clear_shards ())
        ()
    in
    { name; persist; table; shards; stats }

  (* shard table of the current task's slot, created on first write.
     Only ever touched from that slot's domain while the phase runs,
     and from the submitting domain at the merge point — never
     concurrently. *)
  let shard c i =
    match c.shards.(i) with
    | Some t -> t
    | None ->
      let t = H.create 64 in
      c.shards.(i) <- Some t;
      t

  (* Shard-first: a slotted task consults its private shard before the
     shared tier.  The shard holds exactly what this slot wrote since
     the last merge — the hottest entries for the work it is doing.
     The shared tier is the read-mostly second level, promoted from the
     shards at batch boundaries; the backing store, when one is
     installed and the cache persists, is the third ({!backing_of}). *)
  let find_local c key =
    match Pool.slot () with
    | None -> H.find_opt c.table key
    | Some i -> (
      match
        match c.shards.(i) with
        | Some t -> H.find_opt t key
        | None -> None
      with
      | Some _ as r -> r
      | None -> H.find_opt c.table key)

  (* every [put] follows a miss in the local tiers, so [add] never
     shadows a binding and skips [replace]'s walk of the chain *)
  let put c key v =
    match Pool.slot () with
    | None -> H.add c.table key v
    | Some i -> H.add (shard c i) key v

  (* Canonical key bytes for the backing store.  [No_sharing] expands
     shared subtrees: keys share structure (the memoized [Poly.of_expr]
     hands one polynomial to a loop bound and to the env entry that
     bounds its index), and two structurally equal keys built with
     different sharing must marshal to identical bytes and hit the same
     entry.  All key shapes here are acyclic pure data. *)
  let key_bytes key = Marshal.to_string key.k [ Marshal.No_sharing ]

  (* The way into the installed backing store (daemon persistence): the
     store and the key's canonical bytes.  Called only after the local
     tiers missed, and the bytes serve both the store lookup and the
     write-through of the recomputed entry, so a memo call marshals its
     key at most once.  [None] — no allocation — when the cache does
     not persist or no store is installed. *)
  let backing_of c key =
    if not c.persist then None
    else
      match !Cachectl.backing with
      | None -> None
      | Some bk -> Some (bk, key_bytes key)

  (* A store hit is promoted into this process's table — or,
     mid-parallel-phase, into the task's shard, since the shared table
     is read-only then — so the deserialization cost is paid once per
     key per process.  Bytes in the store were written by this same
     binary for this same cache name (enforced by the store's integrity
     header), so the unmarshal is type-correct; a truncated payload
     raises and is treated as a miss. *)
  let backing_find c key (bk, kb) =
    match bk.Cachectl.bk_lookup ~name:c.name ~key:kb with
    | None -> None
    | Some data -> (
      match (Marshal.from_string data 0 : 'v) with
      | v ->
        put c key v;
        Some v
      | exception _ -> None)

  (* write-through: a freshly computed entry of a persistent cache is
     mirrored to the backing store (the store serializes internally and
     is domain-safe, so this is sound from worker tasks too) *)
  let write_through c (bk, kb) v =
    bk.Cachectl.bk_insert ~name:c.name ~key:kb ~data:(Marshal.to_string v [])

  let check_debug c v compute =
    if !Cachectl.debug && v <> compute () then
      raise (Cachectl.Debug_mismatch c.stats.Cachectl.cs_name)

  let served c v compute =
    Cachectl.hit c.stats;
    check_debug c v compute;
    v

  let computed c key compute =
    Cachectl.miss c.stats;
    let v = compute () in
    put c key v;
    v

  let memo c key compute =
    if not !Cachectl.enabled then compute ()
    else
      let key = { h = K.hash key; k = key } in
      match find_local c key with
      | Some v -> served c v compute
      | None -> (
        match backing_of c key with
        | None -> computed c key compute
        | Some b -> (
          match backing_find c key b with
          | Some v -> served c v compute
          | None ->
            let v = computed c key compute in
            write_through c b v;
            v))

  (* a found entry [(v, steps)] is served only when its recorded cost is
     affordable, and then replays the exact spend *)
  let replayed c ~budget (v, steps) compute =
    if Budget.afford budget steps then begin
      ignore (Budget.spend budget steps : bool);
      Cachectl.hit c.stats;
      check_debug c v compute;
      v
    end
    else
      (* Recorded cost unaffordable: the uncached compiler would starve
         mid-computation, so run it and let it starve the same way. *)
      compute ()

  (* a miss: compute, and keep the entry (written through to [b] when
     given) only when the computation ran clear of exhaustion *)
  let budgeted c ~budget key compute b =
    Cachectl.miss c.stats;
    let used0 = Budget.used budget in
    let exhausted0 = Budget.exhausted budget in
    let v = compute () in
    if (not exhausted0) && not (Budget.exhausted budget) then begin
      let entry = (v, Budget.used budget - used0) in
      put c key entry;
      match b with Some b -> write_through c b entry | None -> ()
    end;
    v

  (** [memo_budgeted c ~budget key compute]: entries are
      [(value, steps)].  See the module comment for the replay
      discipline. *)
  let memo_budgeted c ~(budget : Budget.t) key compute =
    if not !Cachectl.enabled then compute ()
    else
      let key = { h = K.hash key; k = key } in
      match find_local c key with
      | Some entry -> replayed c ~budget entry compute
      | None -> (
        match backing_of c key with
        | None -> budgeted c ~budget key compute None
        | Some b as store -> (
          match backing_find c key b with
          | Some entry -> replayed c ~budget entry compute
          | None -> budgeted c ~budget key compute store))
end
