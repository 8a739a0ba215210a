(** Atoms: the indivisible symbols of the polynomial layer.

    An atom is either a scalar integer variable (loop index or symbolic
    parameter) or an opaque expression the polynomial algebra cannot see
    into — an array element like [Z(K)], a function call, a symbolic
    power [2**I].  Opaque atoms compare structurally, so two occurrences
    of [Z(K)] are the same atom (value-numbering by structure, as in
    Polaris' symbolic expression layer). *)

open Fir

type t =
  | Avar of string         (** scalar variable, upper-case name *)
  | Aopaque of Ast.expr    (** canonical opaque sub-expression *)

let var name = Avar (String.uppercase_ascii name)
let opaque e = Aopaque e

(* The order is [Stdlib.compare]'s (every variable before every opaque
   atom, variables by name), which fixes the term order [Poly.to_expr]
   prints; only two opaque atoms need the polymorphic walk. *)
let compare (a : t) (b : t) =
  match (a, b) with
  | Avar x, Avar y -> String.compare x y
  | Avar _, Aopaque _ -> -1
  | Aopaque _, Avar _ -> 1
  | Aopaque x, Aopaque y -> Stdlib.compare x y

let equal a b = compare a b = 0

(** Hash of the atom's content, equal for atoms {!equal} identifies: a
    variable hashes its whole name, an opaque atom its expression
    ({!Fir.Expr.hash}). *)
let hash = function
  | Avar v -> Hashtbl.hash v
  | Aopaque e -> Expr.hash_combine (Expr.hash e) 0x5f

(** Scalar variables mentioned by the atom, including inside opaque
    expressions (needed to invalidate ranges when a variable is killed). *)
let mentions name = function
  | Avar v -> String.equal v name
  | Aopaque e -> Expr.mentions name e

let to_expr = function
  | Avar v -> Ast.Var v
  | Aopaque e -> e

let pp ppf = function
  | Avar v -> Fmt.string ppf v
  | Aopaque e -> Fmt.pf ppf "[%a]" Expr.pp e

let to_string a = Fmt.str "%a" pp a
