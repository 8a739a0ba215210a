(* Additional soundness properties, each checking a symbolic engine
   against brute force:

   - the Banerjee per-loop contributions (computed by vertex evaluation)
     must bound the true min/max over the constrained integer box;
   - Banerjee/SIV "Independent" verdicts must agree with exhaustive
     enumeration of the dependence equation;
   - the Compare prover's [prove_ge]/[prove_lt] answers must hold on
     sampled integer assignments satisfying the range environment;
   - Faulhaber power-sum polynomials have exact rational closed forms;
   - the merge-based polynomial arithmetic equals the hash-table
     reference it replaced, its orders have the sign of
     [Stdlib.compare], and the integer fast path of [Rat] equals the
     general [Rat.make] forms. *)

open Symbolic
open Util

(* ------------------------------------------------------------------ *)
(* Banerjee vertex formulas vs. exhaustive min/max                     *)

let prop_banerjee_contrib =
  let gen =
    QCheck2.Gen.(
      tup4 (int_range (-4) 4) (int_range (-4) 4) (int_range (-3) 3)
        (pair (int_range 0 5) (oneofl [ `Lt; `Eq; `Gt; `Star ])))
  in
  QCheck2.Test.make ~name:"banerjee loop contribution is exact" ~count:500 gen
    (fun (a, b, lo, (extent, dirv)) ->
      let hi = lo + extent in
      let dir =
        match dirv with
        | `Lt -> Dep.Banerjee.Lt
        | `Eq -> Dep.Banerjee.Eq
        | `Gt -> Dep.Banerjee.Gt
        | `Star -> Dep.Banerjee.Star
      in
      (* brute force h = a*i - b*i' over the constrained box *)
      let feasible = ref [] in
      for i = lo to hi do
        for i' = lo to hi do
          let ok =
            match dirv with
            | `Lt -> i < i'
            | `Eq -> i = i'
            | `Gt -> i > i'
            | `Star -> true
          in
          if ok then feasible := ((a * i) - (b * i')) :: !feasible
        done
      done;
      match (Dep.Banerjee.loop_contrib ~a ~b ~lo ~hi dir, !feasible) with
      | None, [] -> true
      | None, _ -> false (* claimed infeasible but solutions exist *)
      | Some _, [] -> false
      | Some (mn, mx), vs ->
        mn = List.fold_left min max_int vs && mx = List.fold_left max min_int vs)

(* ------------------------------------------------------------------ *)
(* Full Banerjee / SIV verdicts vs. exhaustive dependence check        *)

let affine_gen indices =
  QCheck2.Gen.(
    map2
      (fun coeffs const ->
        List.fold_left2
          (fun acc v c ->
            Poly.add acc (Poly.scale (Rat.of_int c) (Poly.var v)))
          (Poly.of_int const) indices coeffs)
      (list_repeat (List.length indices) (int_range (-3) 3))
      (int_range (-6) 6))

let eval_affine (assign : (string * int) list) (p : Poly.t) =
  match
    Poly.eval
      (function
        | Atom.Avar v -> Option.map Rat.of_int (List.assoc_opt v assign)
        | _ -> None)
      p
  with
  | Some r -> Rat.to_int r
  | None -> 0

let mk_loop name lo hi : Analysis.Loops.loop =
  let d : Fir.Ast.do_loop =
    { index = name; init = Fir.Ast.Int_lit lo; limit = Fir.Ast.Int_lit hi;
      step = None; body = []; info = Fir.Ast.fresh_loop_info () }
  in
  Analysis.Loops.describe (Fir.Stmt.mk (Fir.Ast.Do d)) d

let prop_banerjee_carries_sound =
  let gen =
    QCheck2.Gen.(
      tup4 (affine_gen [ "I"; "J" ]) (affine_gen [ "I"; "J" ])
        (pair (int_range 1 4) (int_range 1 4))
        unit)
  in
  QCheck2.Test.make ~name:"banerjee carries: Independent is sound" ~count:400
    gen
    (fun (f, g, (bi, bj), ()) ->
      let loops = [ mk_loop "I" 1 bi; mk_loop "J" 1 bj ] in
      (* does loop I really carry a dependence between f and g? *)
      let really_carries =
        let hit = ref false in
        for i1 = 1 to bi do
          for j1 = 1 to bj do
            for i2 = 1 to bi do
              for j2 = 1 to bj do
                if i1 <> i2 then
                  let v1 = eval_affine [ ("I", i1); ("J", j1) ] f in
                  let v2 = eval_affine [ ("I", i2); ("J", j2) ] g in
                  if v1 = v2 then hit := true
              done
            done
          done
        done;
        !hit
      in
      match Dep.Banerjee.carries ~loops ~k:0 [ f ] [ g ] with
      | Dep.Banerjee.Independent -> not really_carries
      | Dep.Banerjee.Maybe_dependent -> true)

let prop_siv_sound =
  let gen =
    QCheck2.Gen.(
      triple (affine_gen [ "I" ]) (affine_gen [ "I" ]) (int_range 1 8))
  in
  QCheck2.Test.make ~name:"strong SIV: Independent is sound" ~count:400 gen
    (fun (f, g, bound) ->
      let really_carries =
        let hit = ref false in
        for i1 = 1 to bound do
          for i2 = 1 to bound do
            if i1 <> i2 then
              if eval_affine [ ("I", i1) ] f = eval_affine [ ("I", i2) ] g then
                hit := true
          done
        done;
        !hit
      in
      match Dep.Siv.test ~enclosing:[] ~index:"I" ~inner:[] [ f ] [ g ] with
      | Dep.Siv.Independent -> not really_carries
      | Dep.Siv.Maybe_dependent -> true)

(* ------------------------------------------------------------------ *)
(* Compare prover vs. sampled assignments                              *)

(* environment: X in [xlo, xhi], Y in [X+1, 10] (a correlated bound) *)
let compare_env xlo xhi =
  let open Range in
  let env = empty in
  let env = refine env (Atom.var "X") (between (Poly.of_int xlo) (Poly.of_int xhi)) in
  refine env (Atom.var "Y")
    (between (Poly.add (Poly.var "X") Poly.one) (Poly.of_int 10))

let small_poly_gen =
  let open QCheck2.Gen in
  let x = Poly.var "X" and y = Poly.var "Y" in
  let leaf = oneof [ map Poly.of_int (int_range (-6) 6); return x; return y ] in
  let rec go d =
    if d = 0 then leaf
    else
      oneof
        [ leaf;
          map2 Poly.add (go (d - 1)) (go (d - 1));
          map2 Poly.sub (go (d - 1)) (go (d - 1));
          map2 Poly.mul (go (d - 1)) leaf ]
  in
  go 2

let prop_prover_sound =
  let gen = QCheck2.Gen.(triple small_poly_gen small_poly_gen (int_range 0 4)) in
  QCheck2.Test.make ~name:"compare prover: prove_ge is sound" ~count:600 gen
    (fun (p, q, xlo) ->
      let xhi = xlo + 3 in
      let env = compare_env xlo xhi in
      if not (Compare.prove_ge env p q) then true
      else begin
        (* every assignment satisfying the env must satisfy p >= q *)
        let ok = ref true in
        for x = xlo to xhi do
          for y = x + 1 to 10 do
            let assign = [ ("X", x); ("Y", y) ] in
            if eval_affine assign p < eval_affine assign q then ok := false
          done
        done;
        !ok
      end)

let prop_prover_lt_sound =
  let gen = QCheck2.Gen.(triple small_poly_gen small_poly_gen (int_range 0 4)) in
  QCheck2.Test.make ~name:"compare prover: prove_lt is sound" ~count:600 gen
    (fun (p, q, xlo) ->
      let xhi = xlo + 3 in
      let env = compare_env xlo xhi in
      if not (Compare.prove_lt env p q) then true
      else begin
        let ok = ref true in
        for x = xlo to xhi do
          for y = x + 1 to 10 do
            let assign = [ ("X", x); ("Y", y) ] in
            if eval_affine assign p >= eval_affine assign q then ok := false
          done
        done;
        !ok
      end)

let prop_monotonicity_sound =
  QCheck2.Test.make ~name:"monotonicity verdicts are sound" ~count:400
    QCheck2.Gen.(pair small_poly_gen (int_range 0 3))
    (fun (p, xlo) ->
      let env = compare_env xlo (xlo + 3) in
      let check_pairs cmp =
        let ok = ref true in
        for x = xlo to xlo + 3 do
          for y = x + 1 to 10 do
            let v = eval_affine [ ("X", x); ("Y", y) ] p in
            let v' = eval_affine [ ("X", x + 1); ("Y", y) ] p in
            if not (cmp v v') then ok := false
          done
        done;
        !ok
      in
      match Compare.monotonicity env (Atom.var "X") p with
      | Compare.Nondecreasing ->
        (* sampled only within X's env range minus one step *)
        check_pairs ( <= )
      | Compare.Nonincreasing -> check_pairs ( >= )
      | Compare.Constant | Compare.Unknown_mono -> true)

(* ------------------------------------------------------------------ *)
(* Faulhaber power sums                                                *)

let prop_power_sums =
  QCheck2.Test.make ~name:"power sums S_k(n) exact for k <= 6" ~count:200
    QCheck2.Gen.(pair (int_range 0 6) (int_range 0 12))
    (fun (k, n) ->
      let s = Summation.sum_powers k (Poly.of_int n) in
      match Poly.const_val s with
      | Some v ->
        let brute = ref 0 in
        for x = 0 to n do
          let rec pw b e = if e = 0 then 1 else b * pw b (e - 1) in
          brute := !brute + pw x k
        done;
        Rat.equal v (Rat.of_int !brute)
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Polynomial merges vs. the hash-table reference                      *)

(* The general [Rat] forms, without the integer fast path. *)
let rat_add_ref (a : Rat.t) (b : Rat.t) =
  Rat.make ((a.num * b.den) + (b.num * a.den)) (a.den * b.den)

let rat_mul_ref (a : Rat.t) (b : Rat.t) = Rat.make (a.num * b.num) (a.den * b.den)

(* [Poly.normalize] and [Poly.mul_mono] as they were before the
   arithmetic became merges of sorted lists: a hash table per call,
   then a sort by [Stdlib.compare]. *)
let normalize_ref (terms : (Poly.mono * Rat.t) list) : Poly.t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (m, c) ->
      let prev = Option.value ~default:Rat.zero (Hashtbl.find_opt tbl m) in
      Hashtbl.replace tbl m (rat_add_ref prev c))
    terms;
  Hashtbl.fold (fun m c acc -> if Rat.is_zero c then acc else (m, c) :: acc) tbl []
  |> List.sort (fun (m1, _) (m2, _) -> Stdlib.compare m1 m2)

let mul_mono_ref (a : Poly.mono) (b : Poly.mono) : Poly.mono =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (at, e) ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt tbl at) in
      Hashtbl.replace tbl at (prev + e))
    (a @ b);
  Hashtbl.fold (fun at e acc -> (at, e) :: acc) tbl []
  |> List.sort (fun (a1, _) (a2, _) -> Stdlib.compare a1 a2)

let add_ref p q = normalize_ref (p @ q)

let mul_ref p q =
  normalize_ref
    (List.concat_map
       (fun (m1, c1) -> List.map (fun (m2, c2) -> (mul_mono_ref m1 m2, rat_mul_ref c1 c2)) q)
       p)

let z_of sub = Atom.opaque (Fir.Ast.Ref ("Z", [ sub ]))

(* atoms I, J, N and the opaque Z(K), Z(K+1) *)
let atom_pool =
  let k = Fir.Ast.Var "K" in
  [ Atom.var "I"; Atom.var "J"; Atom.var "N"; z_of k;
    z_of (Fir.Ast.Binary (Fir.Ast.Add, k, Fir.Ast.Int_lit 1)) ]

let rat_gen =
  QCheck2.Gen.(map2 Rat.make (int_range (-4) 4) (int_range 1 3))

(* a canonical monomial: distinct atoms, sorted, exponents 1..3 *)
let mono_gen =
  QCheck2.Gen.(
    map
      (fun fs -> mul_mono_ref fs [])
      (list_size (int_range 0 3) (pair (oneofl atom_pool) (int_range 1 3))))

(* raw term lists: unsorted, with repeated monomials and zero
   coefficients *)
let terms_gen = QCheck2.Gen.(list_size (int_range 0 6) (pair mono_gen rat_gen))

let canonical_gen = QCheck2.Gen.map normalize_ref terms_gen

(* a pair whose sum cancels at least partly: q holds -p's terms *)
let poly_pair_gen =
  let open QCheck2.Gen in
  let* p = canonical_gen in
  let* r = canonical_gen in
  let+ cancel = bool in
  let neg_p = List.map (fun (m, (c : Rat.t)) -> (m, Rat.make (-c.num) c.den)) p in
  (p, if cancel then add_ref neg_p r else r)

let print_poly_pair (p, q) = Poly.to_string p ^ "  |  " ^ Poly.to_string q

let prop_poly_merges_match_reference =
  QCheck2.Test.make ~name:"poly add/mul/normalize equal the hash-table reference"
    ~count:1000 ~print:print_poly_pair poly_pair_gen (fun (p, q) ->
      Poly.add p q = add_ref p q
      && Poly.add q p = add_ref q p
      && Poly.mul p q = mul_ref p q
      && Poly.sub p p = []
      && Poly.normalize (p @ q @ p) = normalize_ref (p @ q @ p))

let prop_normalize_matches_reference =
  QCheck2.Test.make ~name:"poly normalize of raw terms equals the reference"
    ~count:1000 terms_gen (fun terms ->
      Poly.normalize terms = normalize_ref terms
      && Poly.normalize (List.rev terms) = normalize_ref terms)

(* deep opaque atoms: equal down to the last leaf of the subscript *)
let deep_atom_gen =
  let open QCheck2.Gen in
  let open Fir.Ast in
  let+ leaf = int_range 1 3 and+ shape = bool in
  let inner = Binary (Mul, Var "K", Binary (Add, Var "N", Int_lit leaf)) in
  z_of (if shape then Fun_call ("F", [ inner ]) else inner)

let sign x = Int.compare x 0

let prop_orders_match_stdlib =
  let open QCheck2.Gen in
  let atom = oneof [ oneofl atom_pool; deep_atom_gen ] in
  let mono = list_size (int_range 0 3) (pair atom (int_range 1 3)) in
  (* monomials that are prefixes of each other, or share a prefix *)
  let mono_pair =
    let* m = mono in
    let* tail = mono in
    let+ which = int_range 0 2 in
    match which with
    | 0 -> (m, m @ tail)
    | 1 -> (m @ tail, m)
    | _ -> (m @ tail, m @ List.rev tail)
  in
  QCheck2.Test.make ~name:"Atom.compare and compare_mono have Stdlib.compare's sign"
    ~count:1000
    (tup3 (pair atom atom) mono_pair (pair mono mono))
    (fun ((a, b), (m1, m2), (m3, m4)) ->
      sign (Atom.compare a b) = sign (Stdlib.compare a b)
      && sign (Poly.compare_mono m1 m2) = sign (Stdlib.compare m1 m2)
      && sign (Poly.compare_mono m3 m4) = sign (Stdlib.compare m3 m4))

let prop_rat_fast_path =
  let gen =
    QCheck2.Gen.(
      pair
        (oneof [ map Rat.of_int (int_range (-9) 9); map2 Rat.make (int_range (-9) 9) (int_range 1 6) ])
        (oneof [ map Rat.of_int (int_range (-9) 9); map2 Rat.make (int_range (-9) 9) (int_range 1 6) ]))
  in
  QCheck2.Test.make ~name:"Rat.add and Rat.mul equal the Rat.make forms" ~count:1000 gen
    (fun (a, b) ->
      Rat.add a b = rat_add_ref a b
      && Rat.mul a b = rat_mul_ref a b
      && Rat.sub a b = rat_add_ref a (Rat.make (-b.num) b.den))

let tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_banerjee_contrib; prop_banerjee_carries_sound; prop_siv_sound;
      prop_prover_sound; prop_prover_lt_sound; prop_monotonicity_sound;
      prop_power_sums; prop_poly_merges_match_reference;
      prop_normalize_matches_reference; prop_orders_match_stdlib;
      prop_rat_fast_path ]
