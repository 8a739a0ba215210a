(** Closed-form symbolic summation (Faulhaber).

    The induction-variable pass needs [sum_{a=lo}^{hi} p(a)] in closed
    form, where [p] is a polynomial whose bounds may depend on outer
    loop indices (triangular nests, paper §3.2 / Fig. 1).  Power sums
    [S_k(n) = sum_{x=0}^{n} x^k] are generated from the standard
    recurrence

      (k+1) S_k(n) = (n+1)^{k+1} - sum_{j<k} C(k+1, j) S_j(n)

    with exact rational coefficients, so e.g. [S_1(n) = (n^2+n)/2].

    The closed form equals the sum for all [hi >= lo - 1] (empty sums
    are 0); for [hi < lo - 1] it extrapolates, which is the standard
    assumption for normalized countable loops. *)

open Util

let binomial n k =
  let k = min k (n - k) in
  let rec go acc i = if i > k then acc else go (acc * (n - k + i) / i) (i + 1) in
  if k < 0 then 0 else go 1 1

(* the distinguished summation variable inside the power-sum polynomials *)
let n_atom = Atom.var "__SUM_N__"
let n_poly = Poly.of_atom n_atom

(* Memoized S_0..S_d as an immutable array published through an atomic:
   readers never take a lock — the common case (the table already holds
   S_k) is one [Atomic.get] and an array index.  The table outlives
   (and is shared by) every task of the parallel dependence phase, so
   extension happens under a mutex and republishes a fresh array; a
   reader racing the publication sees either snapshot, and S_k is a
   pure function of k, so both agree.
   S_k for k' <= k is computed bottom-up so the extension loop can read
   its own snapshot-in-progress. *)
let power_sums : Poly.t array Atomic.t = Atomic.make [||]
let power_sums_mutex = Mutex.create ()

let compute_power_sum (lower : Poly.t array) k : Poly.t =
  if k = 0 then Poly.add n_poly Poly.one (* S_0(n) = n + 1 *)
  else begin
    let np1_pow = Poly.pow (Poly.add n_poly Poly.one) (k + 1) in
    let correction =
      List.fold_left
        (fun acc j ->
          Poly.add acc
            (Poly.scale (Rat.of_int (binomial (k + 1) j)) lower.(j)))
        Poly.zero
        (List.init k (fun j -> j))
    in
    Poly.scale (Rat.make 1 (k + 1)) (Poly.sub np1_pow correction)
  end

let power_sum k : Poly.t =
  let snap = Atomic.get power_sums in
  if k < Array.length snap then snap.(k)
  else
    Mutex.protect power_sums_mutex (fun () ->
        (* re-read under the lock: another domain may have extended *)
        let snap = Atomic.get power_sums in
        if k < Array.length snap then snap.(k)
        else begin
          let ext = Array.make (k + 1) Poly.zero in
          Array.blit snap 0 ext 0 (Array.length snap);
          for j = Array.length snap to k do
            ext.(j) <- compute_power_sum ext j
          done;
          Atomic.set power_sums ext;
          ext.(k)
        end)

(** [sum_powers k hi] = closed form of [sum_{x=0}^{hi} x^k] with [hi] a
    polynomial. *)
let sum_powers k (hi : Poly.t) : Poly.t = Poly.subst n_atom hi (power_sum k)

(** [sum ~index ~lo ~hi p] = closed form of [sum_{index=lo}^{hi} p].

    [p] may contain [index] (as the atom [Atom.var index]) up to degree 8
    as well as arbitrary other atoms; [lo] and [hi] must not contain
    [index].

    @raise Invalid_argument if a bound mentions the summation index or
    an opaque atom of [p] captures the index (sum of such a term has no
    closed form here). *)
let sum ~(index : string) ~(lo : Poly.t) ~(hi : Poly.t) (p : Poly.t) : Poly.t =
  let a = Atom.var index in
  if Poly.contains_atom a lo || Poly.contains_atom a hi then
    invalid_arg "Summation.sum: bound depends on the summation index";
  List.iter
    (fun at ->
      match at with
      | Atom.Aopaque _ when Atom.mentions (Fir.Symtab.norm index) at ->
        invalid_arg "Summation.sum: opaque atom captures the summation index"
      | _ -> ())
    (Poly.atoms p);
  let lo_m1 = Poly.sub lo Poly.one in
  List.fold_left
    (fun acc (k, coeff) ->
      let piece =
        if k = 0 then
          (* sum of a constant-in-index coefficient: coeff * (hi - lo + 1) *)
          Poly.mul coeff (Poly.add (Poly.sub hi lo) Poly.one)
        else
          Poly.mul coeff (Poly.sub (sum_powers k hi) (sum_powers k lo_m1))
      in
      Poly.add acc piece)
    Poly.zero (Poly.coeffs_in a p)
