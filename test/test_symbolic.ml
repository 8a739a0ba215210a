(* Tests for the symbolic layer: polynomials, summation, ranges,
   comparison, range propagation. *)

open Symbolic
open Util

let poly = Alcotest.testable (fun ppf p -> Poly.pp ppf p) Poly.equal

let x = Poly.var "X"
let y = Poly.var "Y"
let n = Poly.var "N"

(* ----- polynomial algebra ----- *)

let test_poly_basics () =
  Alcotest.check poly "x+x = 2x" (Poly.scale (Rat.of_int 2) x) (Poly.add x x);
  Alcotest.check poly "x-x = 0" Poly.zero (Poly.sub x x);
  Alcotest.check poly "x*x = x^2" (Poly.pow x 2) (Poly.mul x x);
  Alcotest.check poly "(x+y)^2"
    (Poly.add (Poly.pow x 2) (Poly.add (Poly.scale (Rat.of_int 2) (Poly.mul x y)) (Poly.pow y 2)))
    (Poly.pow (Poly.add x y) 2)

let test_poly_queries () =
  let p = Poly.add (Poly.mul x (Poly.pow y 2)) Poly.one in
  Alcotest.(check int) "degree y" 2 (Poly.degree (Atom.var "Y") p);
  Alcotest.(check int) "degree x" 1 (Poly.degree (Atom.var "X") p);
  Alcotest.(check bool) "mentions X" true (Poly.mentions_var "X" p);
  Alcotest.(check bool) "const_val none" true (Poly.const_val p = None);
  Alcotest.(check bool) "const_val some" true
    (Poly.const_val (Poly.of_int 3) = Some (Rat.of_int 3))

let test_poly_subst () =
  (* (x+1)^2 at x := y - 1 gives y^2 *)
  let p = Poly.pow (Poly.add x Poly.one) 2 in
  let q = Poly.subst (Atom.var "X") (Poly.sub y Poly.one) p in
  Alcotest.check poly "subst" (Poly.pow y 2) q

let test_coeffs_in () =
  (* 3x^2 + yx + 5 in x *)
  let p =
    Poly.add
      (Poly.scale (Rat.of_int 3) (Poly.pow x 2))
      (Poly.add (Poly.mul y x) (Poly.of_int 5))
  in
  match Poly.coeffs_in (Atom.var "X") p with
  | [ (0, c0); (1, c1); (2, c2) ] ->
    Alcotest.check poly "c0" (Poly.of_int 5) c0;
    Alcotest.check poly "c1" y c1;
    Alcotest.check poly "c2" (Poly.of_int 3) c2
  | _ -> Alcotest.fail "unexpected coefficient structure"

(* random polynomial evaluation oracle *)
let assignment = function
  | Atom.Avar "X" -> Some (Rat.of_int 3)
  | Atom.Avar "Y" -> Some (Rat.of_int (-2))
  | Atom.Avar "N" -> Some (Rat.of_int 5)
  | _ -> None

let poly_gen =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [ map Poly.of_int (int_range (-5) 5); return x; return y; return n ]
  in
  let rec go d =
    if d = 0 then leaf
    else
      oneof
        [ leaf;
          map2 Poly.add (go (d - 1)) (go (d - 1));
          map2 Poly.sub (go (d - 1)) (go (d - 1));
          map2 Poly.mul (go (d - 1)) (go (d - 1)) ]
  in
  go 3

let ev p = Poly.eval assignment p

let prop_poly_add_homomorphic =
  QCheck2.Test.make ~name:"poly eval: add homomorphic" ~count:300
    QCheck2.Gen.(pair poly_gen poly_gen)
    (fun (p, q) ->
      match (ev p, ev q, ev (Poly.add p q)) with
      | Some a, Some b, Some c -> Rat.equal c (Rat.add a b)
      | _ -> false)

let prop_poly_mul_homomorphic =
  QCheck2.Test.make ~name:"poly eval: mul homomorphic" ~count:300
    QCheck2.Gen.(pair poly_gen poly_gen)
    (fun (p, q) ->
      match (ev p, ev q, ev (Poly.mul p q)) with
      | Some a, Some b, Some c -> Rat.equal c (Rat.mul a b)
      | _ -> false)

let prop_poly_canonical =
  QCheck2.Test.make ~name:"poly add commutes (canonical form)" ~count:300
    QCheck2.Gen.(pair poly_gen poly_gen)
    (fun (p, q) -> Poly.equal (Poly.add p q) (Poly.add q p))

(* of_expr / to_expr round-trip through evaluation *)
let prop_expr_roundtrip =
  QCheck2.Test.make ~name:"of_expr/to_expr preserve value" ~count:300 poly_gen
    (fun p ->
      let e = Poly.to_expr p in
      let p' = Poly.of_expr e in
      (* to_expr uses exact division so the round trip is exact *)
      match (ev p, ev p') with Some a, Some b -> Rat.equal a b | _ -> false)

let test_of_expr_division () =
  (* (N*N + N) / 2 becomes an exact rational polynomial *)
  let e =
    Fir.Expr.div
      (Fir.Expr.add (Fir.Expr.mul (Fir.Ast.Var "N") (Fir.Ast.Var "N")) (Fir.Ast.Var "N"))
      (Fir.Expr.int 2)
  in
  let p = Poly.of_expr e in
  let expected = Poly.scale (Rat.make 1 2) (Poly.add (Poly.pow n 2) n) in
  Alcotest.check poly "triangular closed form" expected p

let test_of_expr_inexact_division () =
  (* Fortran integer division truncates: a quotient that is not an
     integer at every integer point must not become exact scaling *)
  let open Fir in
  let i = Ast.Var "I" in
  let half_up = Expr.div (Expr.add i (Expr.int 1)) (Expr.int 2) in
  let p = Poly.of_expr half_up in
  Alcotest.(check int) "(I+1)/2: one term" 1 (List.length p);
  Alcotest.(check (list string)) "(I+1)/2: one opaque atom"
    [ "[(I + 1) / 2]" ]
    (List.map Atom.to_string (Poly.atoms p));
  let twice_half = Expr.mul (Expr.div i (Expr.int 2)) (Expr.int 2) in
  Alcotest.(check bool) "(I/2)*2 is not I" false
    (Poly.equal (Poly.of_expr twice_half) (Poly.var "I"));
  (* integer-valued without integer coefficients: stays a polynomial *)
  let n = Ast.Var "N" and m = Ast.Var "M" in
  let trfd =
    Expr.div (Expr.mul m (Expr.add (Expr.mul n n) n)) (Expr.int 2)
  in
  Alcotest.(check (list string)) "M*(N*N+N)/2 stays exact" [ "M"; "N" ]
    (List.map Atom.to_string (Poly.atoms (Poly.of_expr trfd)))

let test_of_expr_opaque () =
  let e = Fir.Expr.ref_ "Z" [ Fir.Ast.Var "K" ] in
  let p = Poly.of_expr e in
  Alcotest.(check int) "one opaque atom" 1 (List.length (Poly.atoms p));
  Alcotest.(check bool) "mentions Z" true (Poly.mentions_var "Z" p);
  Alcotest.(check bool) "mentions K" true (Poly.mentions_var "K" p)

(* ----- summation ----- *)

let brute_sum lo hi f =
  let acc = ref 0 in
  for i = lo to hi do
    acc := !acc + f i
  done;
  !acc

let eval_at_i value p =
  Poly.eval
    (function Atom.Avar "I" -> Some (Rat.of_int value) | _ -> None)
    p

let test_summation_constant () =
  let s = Summation.sum ~index:"I" ~lo:Poly.one ~hi:n Poly.one in
  Alcotest.check poly "sum 1 = n" n s

let test_summation_linear () =
  let i = Poly.var "I" in
  let s = Summation.sum ~index:"I" ~lo:Poly.one ~hi:n i in
  let expected = Poly.scale (Rat.make 1 2) (Poly.add (Poly.pow n 2) n) in
  Alcotest.check poly "sum i = (n^2+n)/2" expected s

let prop_summation_matches_brute =
  (* random polynomial in I up to degree 4, random constant bounds *)
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 4) (pair (int_range 0 4) (int_range (-4) 4)))
        (pair (int_range (-3) 3) (int_range (-3) 8)))
  in
  QCheck2.Test.make ~name:"Faulhaber sum = brute force" ~count:300 gen
    (fun (terms, (lo, hi)) ->
      let p =
        List.fold_left
          (fun acc (d, c) ->
            Poly.add acc (Poly.scale (Rat.of_int c) (Poly.pow (Poly.var "I") d)))
          Poly.zero terms
      in
      let closed =
        Summation.sum ~index:"I" ~lo:(Poly.of_int lo) ~hi:(Poly.of_int hi) p
      in
      match Poly.const_val closed with
      | Some v when hi >= lo - 1 ->
        let brute =
          brute_sum lo hi (fun i ->
              match eval_at_i i p with
              | Some r -> Rat.to_int r
              | None -> 0)
        in
        Rat.equal v (Rat.of_int brute)
      | _ -> hi < lo - 1 (* closed form only claimed for hi >= lo-1 *))

let test_summation_triangular () =
  (* sum_{k=0}^{j-1} 1, then sum over j = 0..n-1: (n^2-n)/2 *)
  let j = Poly.var "J" in
  let inner = Summation.sum ~index:"K" ~lo:Poly.zero ~hi:(Poly.sub j Poly.one) Poly.one in
  let outer = Summation.sum ~index:"J" ~lo:Poly.zero ~hi:(Poly.sub n Poly.one) inner in
  let expected = Poly.scale (Rat.make 1 2) (Poly.sub (Poly.pow n 2) n) in
  Alcotest.check poly "triangular trips" expected outer

let test_summation_capture_rejected () =
  let i = Poly.var "I" in
  Alcotest.(check bool) "bound mentions index" true
    (match Summation.sum ~index:"I" ~lo:Poly.zero ~hi:i Poly.one with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ----- comparison / ranges ----- *)

let env_basic =
  let open Range in
  let e = empty in
  let e = refine e (Atom.var "N") (at_least Poly.one) in
  let e = refine e (Atom.var "I") (between Poly.zero (Poly.sub n Poly.one)) in
  e

let test_compare_simple () =
  Alcotest.(check bool) "i >= 0" true (Compare.prove_ge env_basic x Poly.zero = false);
  Alcotest.(check bool) "I >= 0" true (Compare.prove_ge env_basic (Poly.var "I") Poly.zero);
  Alcotest.(check bool) "I <= N-1" true
    (Compare.prove_le env_basic (Poly.var "I") (Poly.sub n Poly.one));
  Alcotest.(check bool) "I < N" true (Compare.prove_lt env_basic (Poly.var "I") n);
  Alcotest.(check bool) "not I < N-1" false
    (Compare.prove_lt env_basic (Poly.var "I") (Poly.sub n Poly.one))

let test_compare_correlated () =
  (* K in [1, I-1], I in [2, N]: prove K <= N - 1 *)
  let open Range in
  let e = empty in
  let e = refine e (Atom.var "N") (at_least (Poly.of_int 2)) in
  let e = refine e (Atom.var "I") (between (Poly.of_int 2) n) in
  let e = refine e (Atom.var "K") (between Poly.one (Poly.sub (Poly.var "I") Poly.one)) in
  Alcotest.(check bool) "K <= I-1" true
    (Compare.prove_le e (Poly.var "K") (Poly.sub (Poly.var "I") Poly.one));
  Alcotest.(check bool) "K <= N-1" true
    (Compare.prove_le e (Poly.var "K") (Poly.sub n Poly.one));
  Alcotest.(check bool) "K >= 1" true (Compare.prove_ge e (Poly.var "K") Poly.one)

let test_monotonicity () =
  (* f = i^2 is nondecreasing for i >= 0 *)
  let i = Poly.var "I" in
  Alcotest.(check bool) "i^2 nondecreasing on [0,n-1]" true
    (Compare.monotonicity env_basic (Atom.var "I") (Poly.pow i 2) = Compare.Nondecreasing);
  Alcotest.(check bool) "-i nonincreasing" true
    (Compare.monotonicity env_basic (Atom.var "I") (Poly.neg i) = Compare.Nonincreasing);
  (* i^2 on [-n, n] is not monotone *)
  let e = Range.refine Range.empty (Atom.var "I") (Range.between (Poly.neg n) n) in
  let e = Range.refine e (Atom.var "N") (Range.at_least Poly.one) in
  Alcotest.(check bool) "i^2 not monotone on [-n,n]" true
    (Compare.monotonicity e (Atom.var "I") (Poly.pow i 2) = Compare.Unknown_mono)

let test_trfd_range_math () =
  (* the paper's worked example: f = (i(n^2+n) + j^2 - j)/2 + k + 1 *)
  let i = Poly.var "I" and j = Poly.var "J" and k = Poly.var "K" in
  let half = Rat.make 1 2 in
  let f =
    Poly.add
      (Poly.scale half
         (Poly.add (Poly.mul i (Poly.add (Poly.pow n 2) n)) (Poly.sub (Poly.pow j 2) j)))
      (Poly.add k Poly.one)
  in
  let open Range in
  let m = Poly.var "M" in
  let env = empty in
  let env = refine env (Atom.var "N") (at_least Poly.one) in
  let env = refine env (Atom.var "M") (at_least Poly.one) in
  let env = refine env (Atom.var "I") (between Poly.zero (Poly.sub m Poly.one)) in
  let env = refine env (Atom.var "J") (between Poly.zero (Poly.sub n Poly.one)) in
  let env = refine env (Atom.var "K") (between Poly.zero (Poly.sub j Poly.one)) in
  let over = [ Atom.var "K"; Atom.var "J" ] in
  let a2 =
    match Compare.eliminate env `Max ~over f with Ok p -> p | Error _ -> Alcotest.fail "max"
  in
  let b2 =
    match Compare.eliminate env `Min ~over f with Ok p -> p | Error _ -> Alcotest.fail "min"
  in
  (* paper: a2(i) = (i(n^2+n) + n^2 - n)/2 ; b2(i) = (i(n^2+n))/2 + 1 *)
  let expected_a2 =
    Poly.scale half (Poly.add (Poly.mul i (Poly.add (Poly.pow n 2) n)) (Poly.sub (Poly.pow n 2) n))
  in
  let expected_b2 =
    Poly.add (Poly.scale half (Poly.mul i (Poly.add (Poly.pow n 2) n))) Poly.one
  in
  Alcotest.check poly "a2" expected_a2 a2;
  Alcotest.check poly "b2" expected_b2 b2;
  (* b2(i+1) - a2(i) = n + 1 > 0, and b2 monotone nondecreasing *)
  let b2_next = Poly.subst (Atom.var "I") (Poly.add i Poly.one) b2 in
  Alcotest.(check bool) "a2(i) < b2(i+1)" true (Compare.prove_lt env a2 b2_next);
  Alcotest.(check bool) "b2 monotone" true
    (Compare.monotonicity env (Atom.var "I") b2 = Compare.Nondecreasing)

(* ----- range propagation ----- *)

(* the range environments inside the DO loops of [src]'s main program,
   in source order *)
let loop_envs src =
  let u = Fir.Program.main (Frontend.Parser.parse_string src) in
  List.map snd (Range_prop.loop_envs u)

let test_range_prop_loop_facts () =
  let src =
    "      PROGRAM T\n\
     \      INTEGER N, I, J\n\
     \      N = 50\n\
     \      DO I = 2, N\n\
     \        DO J = 1, I - 1\n\
     \          X = X + 1.0\n\
     \        END DO\n\
     \      END DO\n\
     \      END\n"
  in
  let env = List.nth (loop_envs src) 1 in
  Alcotest.(check bool) "J >= 1" true (Compare.prove_ge env (Poly.var "J") Poly.one);
  Alcotest.(check bool) "J <= I-1" true
    (Compare.prove_le env (Poly.var "J") (Poly.sub (Poly.var "I") Poly.one));
  Alcotest.(check bool) "I <= N" true (Compare.prove_le env (Poly.var "I") n);
  Alcotest.(check bool) "N = 50 via assignment fact" true
    (Compare.prove_le env n (Poly.of_int 50))

(* a one-trip DO placed where the facts are read *)
let test_range_prop_if_facts () =
  let src =
    "      PROGRAM T\n\
     \      INTEGER K, M\n\
     \      IF (K .GE. 3 .AND. K .LT. M) THEN\n\
     \        DO I = 1, 1\n\
     \          L = K\n\
     \        END DO\n\
     \      END IF\n\
     \      END\n"
  in
  let env = List.hd (loop_envs src) in
  Alcotest.(check bool) "K >= 3" true (Compare.prove_ge env (Poly.var "K") (Poly.of_int 3));
  (* K .LT. M with integer vars gives K <= M - 1 *)
  Alcotest.(check bool) "K <= M-1" true
    (Compare.prove_le env (Poly.var "K") (Poly.sub (Poly.var "M") Poly.one))

let test_range_prop_kill () =
  let src =
    "      PROGRAM T\n\
     \      INTEGER K\n\
     \      K = 5\n\
     \      K = K + 1\n\
     \      DO I = 1, 1\n\
     \        L = K\n\
     \      END DO\n\
     \      END\n"
  in
  let env = List.hd (loop_envs src) in
  (* K = K+1 kills the K = 5 fact and is self-referential, so no fact *)
  Alcotest.(check bool) "K = 5 fact killed" false
    (Compare.prove_le env (Poly.var "K") (Poly.of_int 5))

(* a labeled statement may be a backward GOTO target, so the walk
   forgets every fact there: the DO before the label sees K = 5, the DO
   after it does not *)
let test_range_prop_label_reset () =
  let src =
    "      PROGRAM T\n\
     \      INTEGER K\n\
     \      K = 5\n\
     \      DO I = 1, 1\n\
     \        L = K\n\
     \      END DO\n\
     \   10 CONTINUE\n\
     \      DO J = 1, 1\n\
     \        L = K\n\
     \      END DO\n\
     \      END\n"
  in
  match loop_envs src with
  | [ before; after ] ->
    Alcotest.(check bool) "K = 5 before the label" true
      (Compare.prove_le before (Poly.var "K") (Poly.of_int 5));
    Alcotest.(check bool) "no fact after the label" false
      (Compare.prove_le after (Poly.var "K") (Poly.of_int 5))
  | envs -> Alcotest.failf "%d loop envs, expected 2" (List.length envs)

(* a DO inside a DO WHILE body runs after any number of trips, so every
   name the body assigns is killed; the WHILE condition and the facts
   on names the body leaves alone still hold *)
let test_range_prop_while_kill () =
  let src =
    "      PROGRAM T\n\
     \      INTEGER K, M\n\
     \      K = 5\n\
     \      M = 7\n\
     \      DO WHILE (K .LT. M)\n\
     \        DO I = 1, 1\n\
     \          L = K\n\
     \        END DO\n\
     \        K = K + 1\n\
     \      END DO\n\
     \      END\n"
  in
  let env = List.hd (loop_envs src) in
  Alcotest.(check bool) "K = 5 killed by the body's K = K + 1" false
    (Compare.prove_le env (Poly.var "K") (Poly.of_int 5));
  Alcotest.(check bool) "M = 7 kept" true
    (Compare.prove_le env (Poly.var "M") (Poly.of_int 7))

let tests =
  [ ("poly basics", `Quick, test_poly_basics);
    ("poly queries", `Quick, test_poly_queries);
    ("poly substitution", `Quick, test_poly_subst);
    ("poly coeffs_in", `Quick, test_coeffs_in);
    ("of_expr exact division", `Quick, test_of_expr_division);
    ("of_expr inexact division is opaque", `Quick, test_of_expr_inexact_division);
    ("of_expr opaque atoms", `Quick, test_of_expr_opaque);
    ("summation constant", `Quick, test_summation_constant);
    ("summation linear (Faulhaber)", `Quick, test_summation_linear);
    ("summation triangular", `Quick, test_summation_triangular);
    ("summation capture rejected", `Quick, test_summation_capture_rejected);
    ("compare simple bounds", `Quick, test_compare_simple);
    ("compare correlated bounds", `Quick, test_compare_correlated);
    ("monotonicity", `Quick, test_monotonicity);
    ("TRFD worked example (paper 3.3.1)", `Quick, test_trfd_range_math);
    ("range prop: loop facts", `Quick, test_range_prop_loop_facts);
    ("range prop: IF facts", `Quick, test_range_prop_if_facts);
    ("range prop: kill on assignment", `Quick, test_range_prop_kill);
    ("range prop: a label forgets every fact", `Quick,
     test_range_prop_label_reset);
    ("range prop: a DO WHILE body kills what it assigns", `Quick,
     test_range_prop_while_kill) ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_poly_add_homomorphic; prop_poly_mul_homomorphic;
        prop_poly_canonical; prop_expr_roundtrip; prop_summation_matches_brute ]
