(** Scalar runtime values of the Fortran interpreter. *)

type t =
  | Int of int
  | Real of float
  | Bool of bool
  | Str of string

exception Type_error of string

let type_error fmt = Fmt.kstr (fun s -> raise (Type_error s)) fmt

let to_int = function
  | Int n -> n
  | Real x -> int_of_float x   (* Fortran INT(): truncation toward zero *)
  | v -> type_error "integer expected, got %s" (match v with Bool _ -> "logical" | Str _ -> "character" | _ -> "?")

let to_float = function
  | Int n -> float_of_int n
  | Real x -> x
  | _ -> type_error "numeric value expected"

let to_bool = function
  | Bool b -> b
  | _ -> type_error "logical value expected"

let is_real = function Real _ -> true | _ -> false

(* Fortran numeric promotion: Int op Int stays Int, anything Real is Real *)
let add a b =
  match (a, b) with
  | Int x, Int y -> Int (x + y)
  | _ -> Real (to_float a +. to_float b)

let sub a b =
  match (a, b) with
  | Int x, Int y -> Int (x - y)
  | _ -> Real (to_float a -. to_float b)

let mul a b =
  match (a, b) with
  | Int x, Int y -> Int (x * y)
  | _ -> Real (to_float a *. to_float b)

let div a b =
  match (a, b) with
  | Int _, Int 0 -> raise Division_by_zero
  | Int x, Int y ->
    (* Fortran integer division truncates toward zero, as does OCaml's / *)
    Int (x / y)
  | _ -> Real (to_float a /. to_float b)

let rec ipow b e = if e <= 0 then 1 else b * ipow b (e - 1)

(** INTEGER ** INTEGER. *)
let pow_int x y =
  if y >= 0 then ipow x y
  else if x = 1 then 1
  else if x = -1 then if y mod 2 = 0 then 1 else -1
  else 0

(** REAL ** INTEGER. *)
let pow_real_int b y =
  if y >= 0 then
    (* iterated multiplication: matches unrolled recurrences exactly *)
    let rec go acc n = if n = 0 then acc else go (acc *. b) (n - 1) in
    go 1.0 y
  else Float.pow b (float_of_int y)

let pow a b =
  match (a, b) with
  | Int x, Int y -> Int (pow_int x y)
  | _, Int y -> Real (pow_real_int (to_float a) y)
  | _ -> Real (Float.pow (to_float a) (to_float b))

let neg = function Int n -> Int (-n) | Real x -> Real (-.x) | _ -> type_error "negation of non-number"

(* Relational operators.  Reals compare with the IEEE-754 predicates,
   like the emitted C: every ordered comparison and [.EQ.] involving a
   NaN is false, and [.NE.] is true. *)
let lt a b = match (a, b) with Int x, Int y -> x < y | _ -> to_float a < to_float b
let le a b = match (a, b) with Int x, Int y -> x <= y | _ -> to_float a <= to_float b
let gt a b = match (a, b) with Int x, Int y -> x > y | _ -> to_float a > to_float b
let ge a b = match (a, b) with Int x, Int y -> x >= y | _ -> to_float a >= to_float b

let equal a b =
  match (a, b) with
  | Bool x, Bool y -> x = y
  | Str x, Str y -> String.equal x y
  | Int x, Int y -> x = y
  | _ -> to_float a = to_float b

(** [MAX]/[MIN] of two values as [a >= b ? a : b] / [a <= b ? a : b]:
    a NaN second operand wins, a NaN first operand loses. *)
let max_num a b = if ge a b then a else b

let min_num a b = if le a b then a else b

let pp ppf = function
  | Int n -> Fmt.int ppf n
  | Real x -> Fmt.pf ppf "%g" x
  | Bool b -> Fmt.string ppf (if b then "T" else "F")
  | Str s -> Fmt.string ppf s

let to_string v = Fmt.str "%a" pp v
