(** Canonical multivariate polynomials with rational coefficients.

    Sum-of-products form over {!Atom}: a polynomial is a sorted
    association list from monomials to non-zero rational coefficients; a
    monomial is a sorted list of (atom, positive exponent) pairs.  The
    representation is canonical, so structural equality decides symbolic
    equality of polynomials.

    Both orders are [Stdlib.compare]'s, computed directly ({!Atom.compare},
    {!compare_mono}); the term order fixes how {!to_expr} prints a closed
    form.  Because both operands are sorted, {!add} and {!mul_mono} are
    linear merges.

    All symbolic reasoning in the reproduction (range test monotonicity,
    induction closed forms, region subset proofs) happens here.  Division
    by a constant becomes exact rational scaling only when the quotient
    is integer-valued, as are the closed forms Polaris generates (the
    [(N**2+N)/2] of TRFD); any other quotient truncates and stays an
    opaque atom (DESIGN.md §5). *)

open Util

type mono = (Atom.t * int) list
(** sorted by atom, exponents >= 1; [] is the constant monomial *)

type t = (mono * Rat.t) list
(** sorted by monomial (Stdlib.compare), coefficients non-zero *)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let zero : t = []
let const (c : Rat.t) : t = if Rat.is_zero c then [] else [ ([], c) ]
let of_int n = const (Rat.of_int n)
let one = of_int 1

let of_atom a : t = [ ([ (a, 1) ], Rat.one) ]
let var name = of_atom (Atom.var name)

(** The sign of [Stdlib.compare a b]: atom by atom, then exponent, and a
    proper prefix first. *)
let rec compare_mono (a : mono) (b : mono) =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (x, i) :: a', (y, j) :: b' ->
    let c = Atom.compare x y in
    if c <> 0 then c else if i <> j then Int.compare i j else compare_mono a' b'

(* sum the equal neighbours of a list sorted by monomial, dropping zeros *)
let rec sum_sorted = function
  | (m1, c1) :: (m2, c2) :: rest when compare_mono m1 m2 = 0 ->
    sum_sorted ((m1, Rat.add c1 c2) :: rest)
  | (m, c) :: rest -> if Rat.is_zero c then sum_sorted rest else (m, c) :: sum_sorted rest
  | [] -> []

(** Canonical form of an arbitrary term list. *)
let normalize (terms : (mono * Rat.t) list) : t =
  sum_sorted (List.sort (fun (m1, _) (m2, _) -> compare_mono m1 m2) terms)

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)

let rec add (p : t) (q : t) : t =
  match (p, q) with
  | [], r | r, [] -> r
  | ((m1, c1) as t1) :: p', ((m2, c2) as t2) :: q' ->
    let c = compare_mono m1 m2 in
    if c < 0 then t1 :: add p' q
    else if c > 0 then t2 :: add p q'
    else
      let s = Rat.add c1 c2 in
      if Rat.is_zero s then add p' q' else (m1, s) :: add p' q'

let scale (c : Rat.t) (p : t) : t =
  if Rat.is_zero c then [] else List.map (fun (m, k) -> (m, Rat.mul c k)) p
let neg p = scale Rat.minus_one p
let sub p q = add p (neg q)

let rec mul_mono (a : mono) (b : mono) : mono =
  match (a, b) with
  | [], m | m, [] -> m
  | ((x, i) as f) :: a', ((y, j) as g) :: b' ->
    let c = Atom.compare x y in
    if c < 0 then f :: mul_mono a' b
    else if c > 0 then g :: mul_mono a b'
    else (x, i + j) :: mul_mono a' b'

let mul (p : t) (q : t) : t =
  normalize
    (List.concat_map (fun (m1, c1) -> List.map (fun (m2, c2) -> (mul_mono m1 m2, Rat.mul c1 c2)) q) p)

let rec pow p n =
  if n <= 0 then one
  else if n = 1 then p
  else
    let h = pow p (n / 2) in
    let h2 = mul h h in
    if n mod 2 = 0 then h2 else mul h2 p

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

let is_zero (p : t) = p = []

let const_val (p : t) : Rat.t option =
  match p with
  | [] -> Some Rat.zero
  | [ ([], c) ] -> Some c
  | _ -> None

let is_const p = Option.is_some (const_val p)

let equal (p : t) (q : t) = p = q

(** Hash of every term — each atom, exponent and coefficient — so it
    agrees with {!equal} (the representation is canonical) and, unlike
    the polymorphic [Hashtbl.hash], tells apart polynomials that differ
    past its first ten words.  The memo keys of [Compare] and
    [Dep.Driver] hash their polynomials with it. *)
let hash (p : t) =
  let mix = Fir.Expr.hash_combine in
  List.fold_left
    (fun h (m, c) ->
      let h = List.fold_left (fun h (a, e) -> mix (mix h (Atom.hash a)) e) h m in
      mix (mix h (Rat.num c)) (Rat.den c))
    0x2c9277b5 p

(** All atoms occurring in [p]. *)
let atoms (p : t) : Atom.t list =
  List.concat_map (fun (m, _) -> List.map fst m) p
  |> List.sort_uniq Atom.compare

let contains_atom a (p : t) =
  List.exists (fun (m, _) -> List.exists (fun (at, _) -> Atom.equal a at) m) p

(** Degree of [p] in atom [a]. *)
let degree a (p : t) =
  List.fold_left
    (fun acc (m, _) ->
      match List.assoc_opt a m with Some e -> max acc e | None -> acc)
    0 p

(** Does any atom of [p] mention scalar variable [name]?  (Including
    inside opaque atoms.) *)
let mentions_var name (p : t) =
  List.exists (fun (m, _) -> List.exists (fun (at, _) -> Atom.mentions name at) m) p

(** Coefficient polynomials of [p] viewed as a univariate polynomial in
    [a]: returns [(k, q_k)] such that [p = sum q_k * a^k]. *)
let coeffs_in a (p : t) : (int * t) list =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (m, c) ->
      let e = Option.value ~default:0 (List.assoc_opt a m) in
      let m' = List.filter (fun (at, _) -> not (Atom.equal at a)) m in
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl e) in
      Hashtbl.replace tbl e ((m', c) :: prev))
    p;
  Hashtbl.fold (fun e terms acc -> (e, normalize terms) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ------------------------------------------------------------------ *)
(* Substitution and evaluation                                         *)

(** [subst a q p] replaces atom [a] by polynomial [q] in [p]. *)
let subst (a : Atom.t) (q : t) (p : t) : t =
  List.fold_left
    (fun acc (m, c) ->
      let term =
        List.fold_left
          (fun acc (at, e) ->
            if Atom.equal at a then mul acc (pow q e)
            else mul acc (pow (of_atom at) e))
          (const c) m
      in
      add acc term)
    zero p

(** Evaluate with an assignment of rationals to atoms; [None] if some
    atom is unassigned. *)
let eval (lookup : Atom.t -> Rat.t option) (p : t) : Rat.t option =
  List.fold_left
    (fun acc (m, c) ->
      match acc with
      | None -> None
      | Some total ->
        let term =
          List.fold_left
            (fun acc (at, e) ->
              match (acc, lookup at) with
              | Some v, Some x ->
                let rec powr b n = if n <= 0 then Rat.one else Rat.mul b (powr b (n - 1)) in
                Some (Rat.mul v (powr x e))
              | _ -> None)
            (Some c) m
        in
        (match term with Some t -> Some (Rat.add total t) | None -> None))
    (Some Rat.zero) p

(* Largest grid {!integer_valued} evaluates on; a quotient with more
   atoms or higher degrees stays opaque. *)
let max_division_grid = 256

(** Is [p] an integer at every integer point?  Its coefficients in the
    binomial basis (products of [C(a, k)]) are integer combinations of
    its values on the grid [0..deg_a] of each atom [a], and [C(a, k)] is
    an integer at every integer [a], so checking that grid decides it. *)
let integer_valued (p : t) =
  List.for_all (fun (_, c) -> Rat.is_integer c) p
  ||
  let grid = List.map (fun a -> (a, degree a p)) (atoms p) in
  let size =
    List.fold_left
      (fun n (_, d) -> if n > max_division_grid then n else n * (d + 1))
      1 grid
  in
  size <= max_division_grid
  &&
  let rec at_every_point point = function
    | [] -> (
      match eval (fun a -> List.assoc_opt a point) p with
      | Some v -> Rat.is_integer v
      | None -> false)
    | (a, d) :: rest ->
      List.for_all
        (fun x -> at_every_point ((a, Rat.of_int x) :: point) rest)
        (List.init (d + 1) Fun.id)
  in
  at_every_point [] grid

(* ------------------------------------------------------------------ *)
(* Conversion from / to expressions                                    *)

open Fir

module Expr_cache = Cache.Make (struct
  type t = Ast.expr

  let hash = Expr.hash
end)

let of_expr_cache : t Expr_cache.t =
  Expr_cache.create ~name:"poly.of_expr" ~persist:true ()

(** Translate an expression to a polynomial.  Non-polynomial structure
    (array elements, calls, symbolic powers, division by a non-constant)
    becomes an opaque atom.  Division by a constant becomes exact
    rational scaling when the quotient is {!integer_valued}, and an
    opaque atom otherwise (see module doc).  Logical/relational expressions
    and non-integral reals yield a fully opaque polynomial.

    Memoized at every recursion level: expressions are immutable, so
    the translation of a repeated subtree is computed once per
    process. *)
let rec of_expr (e : Ast.expr) : t =
  Expr_cache.memo of_expr_cache e (fun () -> of_expr_raw e)

and of_expr_raw (e : Ast.expr) : t =
  match e with
  | Ast.Int_lit n -> of_int n
  | Ast.Real_lit x when Float.is_integer x && Float.abs x < 1e15 ->
    of_int (int_of_float x)
  | Ast.Var v -> var v
  | Ast.Unary (Neg, a) -> neg (of_expr a)
  | Ast.Binary (Add, a, b) -> add (of_expr a) (of_expr b)
  | Ast.Binary (Sub, a, b) -> sub (of_expr a) (of_expr b)
  | Ast.Binary (Mul, a, b) -> mul (of_expr a) (of_expr b)
  | Ast.Binary (Div, a, b) -> (
    match const_val (of_expr b) with
    | Some c when not (Rat.is_zero c) ->
      let q = scale (Rat.div Rat.one c) (of_expr a) in
      if integer_valued q then q else of_atom (Atom.opaque e)
    | _ -> of_atom (Atom.opaque e))
  | Ast.Binary (Pow, a, b) -> (
    match const_val (of_expr b) with
    | Some c when Rat.is_integer c && Rat.to_int c >= 0 && Rat.to_int c <= 8 ->
      pow (of_expr a) (Rat.to_int c)
    | _ -> of_atom (Atom.opaque e))
  | Ast.Real_lit _ | Ast.Logical_lit _ | Ast.Char_lit _ | Ast.Wildcard _
  | Ast.Ref _ | Ast.Fun_call _ | Ast.Unary (Not, _)
  | Ast.Binary ((And | Or | Eq | Ne | Lt | Le | Gt | Ge), _, _) ->
    of_atom (Atom.opaque e)

(** Render back to an expression.  If coefficients have a common
    denominator D > 1 the result is [(...)/D] with integer coefficients,
    regenerating the familiar [(N**2+N)/2] shapes. *)
let to_expr (p : t) : Ast.expr =
  let lcm a b = a / Rat.gcd a b * b in
  let denom = List.fold_left (fun acc (_, c) -> lcm acc (Rat.den c)) 1 p in
  let scaled = scale (Rat.of_int denom) p in
  let mono_expr (m, c) =
    let c = Rat.to_int c in
    let factors =
      List.concat_map
        (fun (at, e) -> List.init e (fun _ -> Atom.to_expr at))
        m
    in
    let base =
      match factors with
      | [] -> Ast.Int_lit (abs c)
      | f :: tl ->
        let prod = List.fold_left (fun acc x -> Ast.Binary (Mul, acc, x)) f tl in
        if abs c = 1 then prod else Ast.Binary (Mul, Ast.Int_lit (abs c), prod)
    in
    (c < 0, base)
  in
  let body =
    match scaled with
    | [] -> Ast.Int_lit 0
    | first :: rest ->
      let neg0, e0 = mono_expr first in
      let start = if neg0 then Ast.Unary (Neg, e0) else e0 in
      List.fold_left
        (fun acc term ->
          let isneg, e = mono_expr term in
          if isneg then Ast.Binary (Sub, acc, e) else Ast.Binary (Add, acc, e))
        start rest
  in
  let e = if denom = 1 then body else Ast.Binary (Div, body, Ast.Int_lit denom) in
  Expr.simplify e

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let pp ppf (p : t) =
  if p = [] then Fmt.string ppf "0"
  else
    let mono_str (m, c) =
      let atoms =
        List.map
          (fun (a, e) ->
            if e = 1 then Atom.to_string a else Fmt.str "%s^%d" (Atom.to_string a) e)
          m
      in
      match (atoms, Rat.equal c Rat.one, Rat.equal c Rat.minus_one) with
      | [], _, _ -> Rat.to_string c
      | _, true, _ -> String.concat "*" atoms
      | _, _, true -> "-" ^ String.concat "*" atoms
      | _ -> Rat.to_string c ^ "*" ^ String.concat "*" atoms
    in
    Fmt.string ppf (String.concat " + " (List.map mono_str p))

let to_string p = Fmt.str "%a" pp p
