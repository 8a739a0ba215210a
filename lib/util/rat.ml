(** Exact rational arithmetic on native integers.

    Coefficients of the symbolic polynomials (see {!Symbolic.Poly}) are
    rationals so that closed forms such as [(n*n + n) / 2] stay exact.
    Native 63-bit integers are ample for the magnitudes appearing in
    compiler analyses; overflow is not checked. *)

type t = { num : int; den : int }
(** Invariant: [den > 0] and [gcd (abs num) den = 1]; zero is [0/1]. *)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(** [make num den] builds the normalized rational [num/den].
    @raise Invalid_argument if [den = 0]. *)
let make num den =
  if den = 0 then invalid_arg "Rat.make: zero denominator";
  let sign = if den < 0 then -1 else 1 in
  let num = sign * num and den = sign * den in
  if num = 0 then { num = 0; den = 1 }
  else
    let g = gcd (abs num) den in
    { num = num / g; den = den / g }

let of_int n = { num = n; den = 1 }
let zero = of_int 0
let one = of_int 1
let minus_one = of_int (-1)

let num t = t.num
let den t = t.den

let is_zero t = t.num = 0
let is_integer t = t.den = 1

(** [to_int t] is the integer value of [t].
    @raise Invalid_argument if [t] is not an integer. *)
let to_int t =
  if t.den <> 1 then invalid_arg "Rat.to_int: not an integer";
  t.num

let to_float t = float_of_int t.num /. float_of_int t.den

(* integer operands (the common case for subscript coefficients) need no
   gcd: the result is already in lowest terms, and zero is [0/1] *)
let add a b =
  if a.den = 1 && b.den = 1 then { num = a.num + b.num; den = 1 }
  else make ((a.num * b.den) + (b.num * a.den)) (a.den * b.den)

let neg a = { a with num = -a.num }
let sub a b = add a (neg b)

let mul a b =
  if a.den = 1 && b.den = 1 then { num = a.num * b.num; den = 1 }
  else make (a.num * b.num) (a.den * b.den)

(** @raise Division_by_zero if [b] is zero. *)
let div a b = if is_zero b then raise Division_by_zero else make (a.num * b.den) (a.den * b.num)

let compare a b = compare (a.num * b.den) (b.num * a.den)
let equal a b = a.num = b.num && a.den = b.den
let sign a = compare a zero
let abs a = { a with num = abs a.num }
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(** Floor of the rational as an integer. *)
let floor a = if a.num >= 0 then a.num / a.den else -(((-a.num) + a.den - 1) / a.den)

(** Ceiling of the rational as an integer. *)
let ceil a = -floor (neg a)

let pp ppf a =
  if a.den = 1 then Fmt.int ppf a.num else Fmt.pf ppf "%d/%d" a.num a.den

let to_string a = Fmt.str "%a" pp a
