(** Deterministic splitmix64 pseudo-random generator.

    All stochastic pieces of the reproduction (synthetic workload inputs,
    qcheck-independent fuzzing in the tests) draw from this generator so
    that every experiment is reproducible bit-for-bit from its seed. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let next_int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(** [int t bound] is a uniform integer in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)
let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

(** Uniform float in [\[0, 1)]. *)
let float t =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  r /. 9007199254740992.0

(** [range t lo hi] is a uniform integer in [\[lo, hi\]] inclusive. *)
let range t lo hi =
  if hi < lo then invalid_arg "Prng.range: empty range";
  lo + int t (hi - lo + 1)

(** [pick t xs] chooses a uniform element of the non-empty list [xs]. *)
let pick t xs =
  match xs with
  | [] -> invalid_arg "Prng.pick: empty list"
  | _ -> List.nth xs (int t (List.length xs))
