(** Static value classes: the class of value an expression yields,
    read off the declared or implicit types of its variables.

    The three classes are the storage classes of the executor:
    [Int] (INTEGER), [Real] (REAL, DOUBLE PRECISION, COMPLEX) and
    [Bool] (LOGICAL).  An expression is {e unclassified} ([None]) when
    its class does not follow from the declarations alone: CHARACTER
    values, user-function results, MAX/MIN over mixed classes, operands
    the executor rejects with a type error, and every variable the
    caller's [var] function leaves unclassified.

    Two clients: constant propagation keeps a definition [v = e] only
    when [e]'s class is [v]'s, so substituting [e] for [v] cannot skip
    the conversion the store performs; the lowered executor
    ([Machine.Interp]) picks unboxed [int], [float] and [bool] closures
    for classified expressions. *)

type t = Int | Real | Bool

(** Class of a value of declared type [typ]. *)
let of_type : Ast.base_type -> t option = function
  | Ast.Integer -> Some Int
  | Ast.Real | Ast.Double_precision | Ast.Complex -> Some Real
  | Ast.Logical -> Some Bool
  | Ast.Character -> None

(** Class of variable [name] in [symtab], declared or implicit. *)
let of_symtab (symtab : Symtab.t) name = of_type (Symtab.type_of symtab name)

let numeric = function Some (Int | Real) -> true | _ -> false

(* Fortran numeric promotion: Int op Int stays Int, anything Real is Real *)
let promote a b =
  match (a, b) with
  | Some Int, Some Int -> Some Int
  | _ -> if numeric a && numeric b then Some Real else None

(* the result class of intrinsic [f] over arguments of classes [args];
   [None] for a wrong arity, which calls the user function of that name *)
let intrinsic f args =
  let all_numeric = List.for_all numeric args in
  match (f, args) with
  | ("ABS" | "IABS" | "DABS"), [ a ] -> if numeric a then a else None
  | ("MOD" | "AMOD" | "DMOD"), [ a; b ] -> promote a b
  | ("MAX" | "MAX0" | "AMAX1" | "DMAX1" | "MIN" | "MIN0" | "AMIN1" | "DMIN1"), a :: rest ->
    if numeric a && List.for_all (( = ) a) rest then a else None
  | ( ( "SQRT" | "DSQRT" | "SIN" | "DSIN" | "COS" | "DCOS" | "TAN" | "DTAN" | "ATAN"
      | "DATAN" | "EXP" | "DEXP" | "LOG" | "ALOG" | "DLOG" | "REAL" | "FLOAT" | "DBLE"
      | "SNGL" ),
      [ _ ] ) ->
    if all_numeric then Some Real else None
  | ("INT" | "IFIX" | "IDINT" | "NINT" | "IDNINT"), [ _ ] ->
    if all_numeric then Some Int else None
  | ("SIGN" | "ISIGN" | "DSIGN"), [ a; _ ] -> if all_numeric then a else None
  | _ -> None

(** The class of [e]'s value when every variable [v] holds values of
    class [var v]. *)
let rec classify (var : string -> t option) (e : Ast.expr) : t option =
  match e with
  | Ast.Int_lit _ -> Some Int
  | Ast.Real_lit _ -> Some Real
  | Ast.Logical_lit _ -> Some Bool
  | Ast.Char_lit _ | Ast.Wildcard _ -> None
  | Ast.Var v | Ast.Ref (v, _) -> var v
  | Ast.Unary (Ast.Neg, a) ->
    let a = classify var a in
    if numeric a then a else None
  | Ast.Unary (Ast.Not, a) -> if classify var a = Some Bool then Some Bool else None
  | Ast.Binary (op, a, b) -> (
    let a = classify var a and b = classify var b in
    match op with
    | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow -> promote a b
    | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      if numeric a && numeric b then Some Bool else None
    | Ast.Eq | Ast.Ne ->
      if (numeric a && numeric b) || (a = Some Bool && b = Some Bool) then Some Bool
      else None
    | Ast.And | Ast.Or -> if a = Some Bool && b = Some Bool then Some Bool else None)
  | Ast.Fun_call (f, args) -> intrinsic f (List.map (classify var) args)

(** [e] as a variable of class [cls] holds it: [e] itself when its class
    is [cls], a converted literal when an INTEGER literal meets a REAL
    variable or the reverse (truncating toward zero, as the store does),
    and [None] otherwise. *)
let stored_as (var : string -> t option) (cls : t option) (e : Ast.expr) =
  let rec convert (e : Ast.expr) =
    match (cls, e) with
    | Some Real, Ast.Int_lit n -> Some (Ast.Real_lit (float_of_int n))
    | Some Int, Ast.Real_lit x -> Some (Ast.Int_lit (int_of_float x))
    | _, Ast.Unary (Ast.Neg, a) -> Option.map (fun a -> Ast.Unary (Ast.Neg, a)) (convert a)
    | _ -> None
  in
  match (cls, classify var e) with
  | Some c, Some c' when c = c' -> Some e
  | _ -> convert e
