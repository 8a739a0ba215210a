(** The Range Test (Blume & Eigenmann; paper §3.3.1).

    A loop is marked parallel when the range of array elements accessed
    by one of its iterations provably does not overlap the ranges of
    other iterations.  Per-iteration ranges are obtained by eliminating
    the indices of loops *inner* to the tested loop by monotone
    min/max substitution ({!Symbolic.Compare}); the non-overlap proof is
    either

    - {b total disjointness}: the whole range of one access lies below
      the whole range of the other for every pair of iterations, or
    - {b adjacent disjointness}: [max f(i) < min g(i+1)] with
      [min g] monotonically non-decreasing in the tested index (and the
      symmetric and direction-reversed variants),

    exactly the tests worked through for TRFD and OCEAN in the paper.

    {b Loop permutation.}  Testing visits the loops of a nest in a
    permuted order: the loops before the tested one in that order are
    held fixed, the later ones are collapsed into ranges.  A loop is
    DOALL under a permuted prefix only if every promoted inner loop of
    the prefix passes its own test (first-difference argument, see
    DESIGN.md); {!Driver} assembles prefixes, this module provides the
    single-position test. *)

open Symbolic

type pair_verdict = Disjoint | Overlap_possible

(* does any opaque atom of [p] capture the scalar [name]?  if so,
   substituting name+1 for name would be unsound *)
let opaque_captures name (p : Poly.t) =
  List.exists
    (fun (m, _) ->
      List.exists
        (function
          | (Atom.Aopaque _ as a), _ -> Atom.mentions name a
          | Atom.Avar _, _ -> false)
        m)
    p

(* env entries whose *bounds* mention the tested index are per-iteration
   facts; they must not be used when comparing two different iterations.
   Exception: atoms being range-collapsed ([keep]) — their index-dependent
   bounds are exactly what produces the per-iteration range, and the
   shift to iteration i+1 rewrites the index through those bounds.
   Returns [env] itself when it drops nothing, so the memo keys of one
   position share one physical environment (and compare by [==]). *)
let sanitize_env (env : Range.env) ~(index : string) ~(keep : Atom.t list) :
    Range.env =
  let index_atom = Atom.var index in
  let kept ((a : Atom.t), (iv : Range.interval)) =
    Atom.equal a index_atom
    || List.exists (Atom.equal a) keep
    || ((not (Range.bound_mentions_var index iv.lo))
       && not (Range.bound_mentions_var index iv.hi))
  in
  if List.for_all kept env then env else List.filter kept env

type ranged = {
  rmin : Poly.t;   (** per-iteration minimum of the subscript *)
  rmax : Poly.t;   (** per-iteration maximum *)
}

(** Collapse the [inner] index atoms out of subscript [p] (one array
    dimension) under [env], producing its per-iteration range. *)
let collapse ?budget env ~(inner : Atom.t list) (p : Poly.t) : ranged option =
  match
    ( Compare.eliminate ?budget env `Min ~over:inner p,
      Compare.eliminate ?budget env `Max ~over:inner p )
  with
  | Ok rmin, Ok rmax -> Some { rmin; rmax }
  | _ -> None

let shift_index ~index (p : Poly.t) =
  Poly.subst (Atom.var index) (Poly.add (Poly.var index) Poly.one) p

(* prove that range [a] at iteration i never meets range [b] at any
   iteration i' > i of [index] *)
let disjoint_forward ?budget env ~index (a : ranged) (b : ranged) : bool =
  let i = Atom.var index in
  (* adjacent + monotone: max a(i) < min b(i+1), min b nondecreasing *)
  (Compare.prove_lt ?budget env a.rmax (shift_index ~index b.rmin)
  && Compare.monotonicity ?budget env i b.rmin = Compare.Nondecreasing)
  || (* decreasing variant: min a(i) > max b(i+1), max b nonincreasing *)
  (Compare.prove_gt ?budget env a.rmin (shift_index ~index b.rmax)
  && Compare.monotonicity ?budget env i b.rmax = Compare.Nonincreasing)

(* prove the two accesses can never touch the same element at all
   (distinct or equal iterations): whole-range disjointness *)
let globally_disjoint ?budget env ~index (a : ranged) (b : ranged) : bool =
  let over = [ Atom.var index ] in
  let amax_all = Compare.eliminate ?budget env `Max ~over a.rmax in
  let bmin_all = Compare.eliminate ?budget env `Min ~over b.rmin in
  let amin_all = Compare.eliminate ?budget env `Min ~over a.rmin in
  let bmax_all = Compare.eliminate ?budget env `Max ~over b.rmax in
  match (amax_all, bmin_all, amin_all, bmax_all) with
  | Ok amax, Ok bmin, _, _ when Compare.prove_lt ?budget env amax bmin -> true
  | _, _, Ok amin, Ok bmax when Compare.prove_gt ?budget env amin bmax -> true
  | _ -> false

(** Test one dimension of an access pair for cross-iteration
    disjointness with respect to loop [index]; [inner] are the atoms to
    collapse (indices of loops treated as inner in the permuted order).

    [env] must contain the bounds facts of every loop in scope (see
    {!Analysis.Loops.nest_env}) and be sanitized for this position:
    [sanitize_env env ~index ~keep:inner]. *)
let test_dimension ?budget env ~(index : string) ~(inner : Atom.t list)
    (f : Poly.t) (g : Poly.t) : pair_verdict =
  match (collapse ?budget env ~inner f, collapse ?budget env ~inner g) with
  | Some rf, Some rg ->
    if
      opaque_captures index rf.rmin || opaque_captures index rf.rmax
      || opaque_captures index rg.rmin || opaque_captures index rg.rmax
    then Overlap_possible
    else if globally_disjoint ?budget env ~index rf rg then Disjoint
    else if
      (* both temporal directions must be covered *)
      disjoint_forward ?budget env ~index rf rg
      && disjoint_forward ?budget env ~index rg rf
    then Disjoint
    else Overlap_possible
  | _ -> Overlap_possible

(** Full access-pair test: the pair is independent across iterations of
    [index] if some dimension proves disjoint.  [env] is sanitized as for
    {!test_dimension}, once per position by the caller. *)
let test_pair ?budget env ~index ~inner (f : Poly.t list) (g : Poly.t list) :
    pair_verdict =
  if List.length f <> List.length g then Overlap_possible
  else if
    List.exists2
      (fun pf pg -> test_dimension ?budget env ~index ~inner pf pg = Disjoint)
      f g
  then Disjoint
  else Overlap_possible
