(** Symbolic comparison of polynomials under a range environment.

    The engine of the range test (paper §3.3.1): the minimum or maximum
    of a polynomial over a set of bounded atoms is computed by repeated
    monotone elimination — determine the sign of the forward difference
    [p(a+1) - p(a)] (recursively, with the same machinery), then
    substitute the appropriate interval endpoint for [a].  Comparing two
    expressions reduces to bounding the sign of their difference. *)

open Util

type monotonicity = Nondecreasing | Nonincreasing | Constant | Unknown_mono

let default_fuel = 16

(* the ambient budget when the caller does not thread one: unlimited, so
   behaviour without a budget is exactly the pre-budget engine (the
   per-call [fuel] still bounds recursion depth; the budget bounds total
   work across one verdict) *)
let no_budget = Util.Budget.unlimited ()

(* Memo tables for the two engine entry points every proof funnels
   through.  [eliminate] and [monotonicity] are deterministic functions
   of (fuel, env, polynomial, ...) except for budget starvation, which
   the replay discipline of [memo_budgeted] reproduces exactly: entries
   record the step cost of the original computation, hits replay that
   spend, and computations that starved are never cached.  Keys put the
   cheap discriminators (fuel, direction) first so structural equality
   on collisions fails fast; the hashes read the whole key, the env
   through {!Range.hash}'s per-domain memo.

   Neither table persists to the daemon's store: a restarted process
   found 4-8 % of their store lookups there, while their keys, which
   carry the whole env, made up most of its bytes. *)

let mix = Fir.Expr.hash_combine
let hash_dir = function `Min -> 1 | `Max -> 2

(* [over = None] is a constant bound ({!extremum_const}): every
   env-bounded atom is eliminated, so the atom list is a function of the
   env and the polynomial and stays out of the key *)
module Elim_cache = Cache.Make (struct
  type t = int * [ `Min | `Max ] * Poly.t * Atom.t list option * Range.env

  let hash (fuel, dir, p, over, env) =
    let h = mix (mix (mix fuel (hash_dir dir)) (Poly.hash p)) (Range.hash env) in
    match over with
    | None -> h
    | Some atoms -> List.fold_left (fun h a -> mix h (Atom.hash a)) (mix h 1) atoms
end)

module Mono_cache = Cache.Make (struct
  type t = int * Atom.t * Poly.t * Range.env

  let hash (fuel, a, p, env) =
    mix (mix (mix fuel (Atom.hash a)) (Poly.hash p)) (Range.hash env)
end)

let elim_cache : ((Poly.t, Poly.t) result * int) Elim_cache.t =
  Elim_cache.create ~name:"compare.eliminate" ~persist:false ()

let mono_cache : (monotonicity * int) Mono_cache.t =
  Mono_cache.create ~name:"compare.monotonicity" ~persist:false ()

(* atoms to try eliminating, in environment order (innermost scope
   first), duplicates removed *)
let env_atoms_in_order (env : Range.env) (p : Poly.t) =
  List.fold_left
    (fun found (a, _) ->
      if Poly.contains_atom a p && not (List.exists (Atom.equal a) found)
      then a :: found
      else found)
    [] env
  |> List.rev

(** Forward difference of [p] in atom [a]: [p(a+1) - p(a)]. *)
let forward_diff (a : Atom.t) (p : Poly.t) : Poly.t =
  let ap1 = Poly.add (Poly.of_atom a) Poly.one in
  Poly.sub (Poly.subst a ap1 p) p

let rec lower_const ?(fuel = default_fuel) ?(budget = no_budget)
    (env : Range.env) (p : Poly.t) : Rat.t option =
  extremum_const ~fuel ~budget env `Min p

and upper_const ?(fuel = default_fuel) ?(budget = no_budget)
    (env : Range.env) (p : Poly.t) : Rat.t option =
  extremum_const ~fuel ~budget env `Max p

and extremum_const ~fuel ~budget env dir p =
  match eliminate_memo ~fuel ~budget env dir None p with
  | Ok q | Error q -> Poly.const_val q

(** Eliminate the atoms of [over] from [p] by monotone substitution of
    interval endpoints, retrying in any order until no progress (an
    atom's monotonicity may only become provable after another has been
    substituted).  [Ok q] if every [over] atom was eliminated, [Error q]
    with the partial result otherwise.  Atoms outside [over] are left
    symbolic. *)
and eliminate ?(fuel = default_fuel) ?(budget = no_budget)
    (env : Range.env) dir ~(over : Atom.t list) (p : Poly.t) :
    (Poly.t, Poly.t) result =
  eliminate_memo ~fuel ~budget env dir (Some over) p

(* [over = None], the constant bounds: every env-bounded atom of [p] is
   eliminated, including those that substituted bounds introduce
   (needed when loop bounds are correlated, e.g. [K <= I-1] under
   [I <= N]) *)
and eliminate_memo ~fuel ~budget env dir over p =
  Elim_cache.memo_budgeted elim_cache ~budget (fuel, dir, p, over, env)
    (fun () -> eliminate_uncached ~fuel ~budget env dir over p)

and eliminate_uncached ~fuel ~budget (env : Range.env) dir over (p : Poly.t)
    : (Poly.t, Poly.t) result =
  if fuel <= 0 || not (Util.Budget.spend budget 1) then Error p
  else
    let grow = Option.is_none over in
    let over =
      match over with Some atoms -> atoms | None -> env_atoms_in_order env p
    in
    (* substituted bounds may reintroduce over-atoms (cyclic bounds);
       bound the number of elimination rounds *)
    let max_rounds = (2 * (List.length over + List.length env)) + 4 in
    (* does the interval of [b] reference atom [a]?  such an [a] must be
       eliminated *after* [b], or the correlation [b <= f(a)] is lost and
       precision suffers (e.g. proving K <= I-1 under K in [1,I-1]) *)
    let bound_references b a =
      match Range.find env b with
      | None -> false
      | Some iv ->
        let in_bound = function
          | Range.Finite q -> (
            Poly.contains_atom a q
            ||
            match a with
            | Atom.Avar v -> Poly.mentions_var v q
            | Atom.Aopaque _ -> false)
          | Range.Neg_inf | Range.Pos_inf -> false
        in
        in_bound iv.lo || in_bound iv.hi
    in
    let order_present atoms =
      let referenced a =
        List.exists (fun b -> (not (Atom.equal a b)) && bound_references b a) atoms
      in
      let leaves, rest = List.partition (fun a -> not (referenced a)) atoms in
      leaves @ rest
    in
    let rec pass p rounds =
      let present =
        if grow then env_atoms_in_order env p
        else List.filter (fun a -> Poly.contains_atom a p) over
      in
      if present = [] then Ok p
      else if rounds <= 0 || not (Util.Budget.spend budget 1) then Error p
      else
        let rec try_each = function
          | [] -> Error p
          | a :: rest -> (
            match eliminate_atom ~fuel ~budget env dir a p with
            | Some p' -> pass p' (rounds - 1)
            | None -> try_each rest)
        in
        try_each (order_present present)
    in
    pass p max_rounds

(** Symbolic extremum over every env-bounded atom of [p]; [None] when
    some atom resists elimination. *)
and extremum ?(fuel = default_fuel) ?(budget = no_budget) (env : Range.env)
    dir (p : Poly.t) : Poly.t option =
  match eliminate ~fuel ~budget env dir ~over:(env_atoms_in_order env p) p with
  | Ok q -> Some q
  | Error _ -> None

and eliminate_atom ~fuel ~budget env dir a p =
  match Range.find env a with
  | None -> None
  | Some iv -> (
    let mono = monotonicity ~fuel:(fuel - 1) ~budget env a p in
    let pick_bound b =
      match b with
      | Range.Finite q when not (Poly.contains_atom a q) ->
        Some (Poly.subst a q p)
      | _ -> None
    in
    match (mono, dir) with
    | Constant, _ -> Some p (* cannot happen: p contains a *)
    | Nondecreasing, `Min | Nonincreasing, `Max -> pick_bound iv.lo
    | Nondecreasing, `Max | Nonincreasing, `Min -> pick_bound iv.hi
    | Unknown_mono, _ -> None)

(** Monotonicity of [p] in [a] over [env], by the sign of the forward
    difference (which is itself bounded recursively). *)
and monotonicity ?(fuel = default_fuel) ?(budget = no_budget)
    (env : Range.env) (a : Atom.t) (p : Poly.t) : monotonicity =
  Mono_cache.memo_budgeted mono_cache ~budget (fuel, a, p, env) (fun () ->
      monotonicity_uncached ~fuel ~budget env a p)

and monotonicity_uncached ~fuel ~budget (env : Range.env) (a : Atom.t)
    (p : Poly.t) : monotonicity =
  if fuel <= 0 || not (Util.Budget.spend budget 1) then Unknown_mono
  else
    let d = forward_diff a p in
    if Poly.is_zero d then Constant
    else if
      match lower_const ~fuel:(fuel - 1) ~budget env d with
      | Some c -> Rat.sign c >= 0
      | None -> false
    then Nondecreasing
    else if
      match upper_const ~fuel:(fuel - 1) ~budget env d with
      | Some c -> Rat.sign c <= 0
      | None -> false
    then Nonincreasing
    else Unknown_mono

(* ------------------------------------------------------------------ *)
(* Relational proofs                                                   *)

(* every atom is integer-valued, so a polynomial with integral
   coefficients that is > c is also >= c+1 *)
let integral_coeffs (p : Poly.t) =
  List.for_all (fun (_, c) -> Rat.is_integer c) p

(** Prove [p >= q] over [env]. *)
let prove_ge ?fuel ?budget env p q =
  match lower_const ?fuel ?budget env (Poly.sub p q) with
  | Some c -> Rat.sign c >= 0
  | None -> false

(** Prove [p > q] over [env].  For integral polynomials [p > q] is also
    tried as [p >= q + 1]. *)
let prove_gt ?fuel ?budget env p q =
  let d = Poly.sub p q in
  match lower_const ?fuel ?budget env d with
  | Some c ->
    Rat.sign c > 0
    || (integral_coeffs d && Rat.compare c Rat.one >= 0)
  | None ->
    integral_coeffs d
    &&
    (match lower_const ?fuel ?budget env (Poly.sub d Poly.one) with
    | Some c -> Rat.sign c >= 0
    | None -> false)

let prove_le ?fuel ?budget env p q = prove_ge ?fuel ?budget env q p
let prove_lt ?fuel ?budget env p q = prove_gt ?fuel ?budget env q p

(** Prove [p = q] (canonical equality or zero difference bounds). *)
let prove_eq ?fuel ?budget env p q =
  Poly.equal p q
  || (prove_ge ?fuel ?budget env p q && prove_le ?fuel ?budget env p q)

(** Three-way symbolic comparison when provable. *)
let compare ?fuel ?budget env p q : int option =
  if prove_eq ?fuel ?budget env p q then Some 0
  else if prove_lt ?fuel ?budget env p q then Some (-1)
  else if prove_gt ?fuel ?budget env p q then Some 1
  else None
