(** The demand-driven analysis manager.

    An analysis whose facts are asked for again within one compilation
    registers here as a memoized, invalidation-tracked {e analysis}: a
    pure function from a piece of IR to a fact, computed on demand and
    reused until the IR it read is touched.  Two do: loop nests
    ([analysis.loops]) and demand-driven reaching definitions
    ([passes.demand]).  Analyses whose facts are asked for once per IR
    object (array accesses, scalar def/use classes) are plain functions:
    a table would only add misses.

    {b Scopes.}  Analyses come in two scopes, by what they read:

    - {!block_analysis}: reads one {!Fir.Ast.block} (a loop body, an IF
      arm, a unit body).  Keyed by the statement id of the block's head;
      valid while the {e physical} block list is unchanged.  Statement
      lists are immutable (passes replace them and announce the
      replacement via [Program.touch]), so physical identity is exactly
      content identity here.
    - {!point_analysis}: reads a unit up to a target statement.  Keyed
      by (unit name, statement id); an entry is valid while it was
      computed on the {e same physical unit record} at the {e same
      invalidation version} ({!Fir.Punit.version}, bumped by every
      [Program.touch]).  Fine-grained by construction: a pass that
      touches unit A invalidates nothing of unit B.

    {b Invalidation.}  Validity is checked per entry on every lookup —
    there is no flush-the-world epoch for these analyses.  A lookup
    that finds a stale entry counts it as an {e invalidation} (reported
    by {!invalidation_snapshot} and `polaris --explain-reuse`) and
    recomputes in place.  Because validity is (physical identity ×
    per-unit version), analyses survive any pass that does not touch
    their unit: deadcode rewriting MAIN does not flush the loop nests
    or reaching definitions of an untouched subroutine.

    {b Results are physical.}  Block/point analyses return values that
    embed statement pointers and ids, so they are only reusable while
    the underlying IR objects are alive — within one compilation.
    Cross-{e compilation} reuse (the `polaris serve` path) is carried by
    the {e semantic} caches, which key on content rather than identity:
    [Punit.fingerprint], [Range_prop.env_at], [Dep.Driver]'s verdict
    cache, [Poly.of_expr] and the [Compare] tables.  Both kinds register
    with {!Util.Cachectl}, and reuse accounting reads every cache
    registered there.

    All tables are {!Symbolic.Cache} instances, which gives every
    analysis the established contracts: the [POLARIS_NO_CACHE] master
    switch, hit/miss counters in [Cachectl], debug cross-checking, and
    per-slot shard routing during {!Util.Pool} parallel phases (the
    shared store stays read-only mid-phase).  The debug cross-check is
    disabled for managed analyses ([equal_result] is constant-true):
    results hold physical pointers, so structural comparison is
    meaningless; validity is enforced by the probes instead. *)

open Fir

(* ------------------------------------------------------------------ *)
(* Registry: invalidation counters                                    *)

let invalidation_registry : (string * int Atomic.t) list ref = ref []

let register_invalidations name =
  let c = Atomic.make 0 in
  invalidation_registry := !invalidation_registry @ [ (name, c) ];
  c

(** Per-analysis count of stale entries found (and recomputed) since
    startup, as [(name, count)]. *)
let invalidation_snapshot () =
  List.map (fun (n, c) -> (n, Atomic.get c)) !invalidation_registry

(** Per-analysis invalidation growth since [base]. *)
let invalidation_delta ~base now =
  List.map
    (fun (name, n) ->
      match List.assoc_opt name base with
      | Some n0 -> (name, n - n0)
      | None -> (name, n))
    now

(* ------------------------------------------------------------------ *)
(* Block-scoped analyses                                               *)

type 'a block_entry = {
  be_block : Ast.block;  (* physical block list the fact was computed on *)
  be_value : 'a;
}

(* A block is identified by the statement id of its head: every
   statement belongs to exactly one block of the AST tree, so among
   live blocks the head sid is unique.  Rewrites that keep a statement
   id ([{ s with kind }]) build a new list, so the physical-identity
   probe catches them; rollbacks deep-copy with fresh ids, so they
   simply miss.  The empty block keys as -1 — all empty blocks are
   interchangeable to a pure analysis. *)
let block_key : Ast.block -> int = function
  | [] -> -1
  | s :: _ -> s.Ast.sid

(** [block_analysis ~name compute]: register a block-scoped analysis
    and return its demand-driven entry point. *)
let block_analysis ~name (compute : Ast.block -> 'a) : Ast.block -> 'a =
  let cache : (int, 'a block_entry) Symbolic.Cache.t =
    Symbolic.Cache.create ~name ~equal_result:(fun _ _ -> true) ()
  in
  let inval = register_invalidations name in
  fun (b : Ast.block) ->
    let entry =
      Symbolic.Cache.memo_validated cache (block_key b)
        ~valid:(fun e ->
          let ok = e.be_block == b in
          if not ok then Atomic.incr inval;
          ok)
        (fun () -> { be_block = b; be_value = compute b })
    in
    entry.be_value

(* ------------------------------------------------------------------ *)
(* Point-scoped analyses                                               *)

type 'a point_entry = {
  pe_unit : Punit.t;   (* physical unit the fact was computed on *)
  pe_version : int;    (* Punit.version at computation time *)
  pe_value : 'a;
}

(** [point_analysis ~name compute]: register an analysis of the facts
    holding at a target statement of a unit (e.g. reaching definitions
    at a program point) and return its demand-driven entry point. *)
let point_analysis ~name (compute : Punit.t -> target:int -> 'a) :
    Punit.t -> target:int -> 'a =
  let cache : (string * int, 'a point_entry) Symbolic.Cache.t =
    Symbolic.Cache.create ~name ~equal_result:(fun _ _ -> true) ()
  in
  let inval = register_invalidations name in
  fun (u : Punit.t) ~target ->
    let entry =
      Symbolic.Cache.memo_validated cache (u.pu_name, target)
        ~valid:(fun e ->
          let ok = e.pe_unit == u && e.pe_version = Punit.version u in
          if not ok then Atomic.incr inval;
          ok)
        (fun () ->
          { pe_unit = u; pe_version = Punit.version u;
            pe_value = compute u ~target })
    in
    entry.pe_value
