(* Tests for the Fortran IR: expressions, statements, pattern matching,
   symbol tables, consistency checking. *)

open Fir
open Ast

let e = Alcotest.testable (fun ppf x -> Expr.pp ppf x) Expr.equal

(* a tiny integer evaluator used as the semantic oracle for simplify *)
let rec eval env (x : expr) : int option =
  match x with
  | Int_lit n -> Some n
  | Var v -> List.assoc_opt v env
  | Unary (Neg, a) -> Option.map (fun n -> -n) (eval env a)
  | Binary (op, a, b) -> (
    match (eval env a, eval env b) with
    | Some x, Some y -> (
      match op with
      | Add -> Some (x + y)
      | Sub -> Some (x - y)
      | Mul -> Some (x * y)
      | Div -> if y = 0 then None else Some (x / y)
      | Pow -> if y < 0 || y > 6 then None else Some (Expr.pow_int x y)
      | _ -> None)
    | _ -> None)
  | _ -> None

let test_constructors () =
  Alcotest.check e "var uppercases" (Var "ABC") (Expr.var "abc");
  Alcotest.check e "call uppercases" (Fun_call ("MOD", [ Expr.int 1 ]))
    (Expr.call "mod" [ Expr.int 1 ])

let test_simplify () =
  let x = Expr.var "X" in
  Alcotest.check e "x+0" x (Expr.simplify (Expr.add x (Expr.int 0)));
  Alcotest.check e "1*x" x (Expr.simplify (Expr.mul (Expr.int 1) x));
  Alcotest.check e "0*x" (Expr.int 0) (Expr.simplify (Expr.mul x (Expr.int 0)));
  Alcotest.check e "2+3" (Expr.int 5) (Expr.simplify (Expr.add (Expr.int 2) (Expr.int 3)));
  Alcotest.check e "2**3" (Expr.int 8) (Expr.simplify (Expr.pow (Expr.int 2) (Expr.int 3)));
  Alcotest.check e "6/3" (Expr.int 2) (Expr.simplify (Expr.div (Expr.int 6) (Expr.int 3)));
  Alcotest.check e "7/2 not folded (inexact)"
    (Expr.div (Expr.int 7) (Expr.int 2))
    (Expr.simplify (Expr.div (Expr.int 7) (Expr.int 2)));
  Alcotest.check e "neg neg" x (Expr.simplify (Expr.neg (Expr.neg x)))

(* random integer expressions over two variables *)
let expr_gen =
  let open QCheck2.Gen in
  let leaf =
    oneof [ map Expr.int (int_range (-9) 9); return (Var "X"); return (Var "Y") ]
  in
  let rec go n =
    if n = 0 then leaf
    else
      oneof
        [ leaf;
          map2 Expr.add (go (n - 1)) (go (n - 1));
          map2 Expr.sub (go (n - 1)) (go (n - 1));
          map2 Expr.mul (go (n - 1)) (go (n - 1));
          map Expr.neg (go (n - 1)) ]
  in
  go 4

let prop_simplify_preserves =
  QCheck2.Test.make ~name:"simplify preserves evaluation" ~count:300 expr_gen
    (fun x ->
      let env = [ ("X", 3); ("Y", -2) ] in
      eval env x = eval env (Expr.simplify x))

let prop_subst_var =
  QCheck2.Test.make ~name:"subst then eval = eval extended env" ~count:300
    expr_gen (fun x ->
      let x' = Expr.subst_var "X" (Expr.int 7) x in
      eval [ ("Y", 5) ] x' = eval [ ("X", 7); ("Y", 5) ] x)

let test_traversal () =
  let x = Expr.add (Expr.ref_ "A" [ Expr.var "I" ]) (Expr.call "MOD" [ Expr.var "J"; Expr.int 2 ]) in
  Alcotest.(check (list string)) "scalar_vars" [ "I"; "J" ] (Expr.scalar_vars x);
  Alcotest.(check (list string)) "all_names" [ "A"; "I"; "J"; "MOD" ] (Expr.all_names x);
  Alcotest.(check bool) "mentions A" true (Expr.mentions "A" x);
  Alcotest.(check bool) "mentions Z" false (Expr.mentions "Z" x)

let test_rename () =
  let x = Expr.add (Expr.ref_ "A" [ Expr.var "I" ]) (Expr.var "B") in
  let r = Expr.rename (fun n -> "P_" ^ n) x in
  Alcotest.check e "renamed"
    (Expr.add (Expr.ref_ "P_A" [ Expr.var "P_I" ]) (Expr.var "P_B"))
    r

(* ----- pattern matching (Forbol) ----- *)

let test_pattern_basic () =
  let pat = Binary (Add, Wildcard 1, Wildcard 2) in
  (match Pattern.matches pat (Expr.add (Expr.var "A") (Expr.int 3)) with
  | Some b ->
    Alcotest.check e "w1" (Expr.var "A") (List.assoc 1 b);
    Alcotest.check e "w2" (Expr.int 3) (List.assoc 2 b)
  | None -> Alcotest.fail "should match");
  Alcotest.(check bool) "no match on mul" true
    (Pattern.matches pat (Expr.mul (Expr.var "A") (Expr.int 3)) = None)

let test_pattern_nonlinear () =
  (* same wildcard twice must bind structurally equal subterms: the
     reduction idiom A(s) = A(s) + b *)
  let lhs = Expr.ref_ "A" [ Expr.var "I" ] in
  let red = Pattern.matches (Binary (Add, lhs, Wildcard 2)) in
  (match red (Expr.add lhs (Expr.var "B")) with
  | Some b -> Alcotest.check e "beta" (Expr.var "B") (List.assoc 2 b)
  | None -> Alcotest.fail "reduction pattern should match");
  let pat2 = Binary (Add, Wildcard 1, Wildcard 1) in
  Alcotest.(check bool) "x+x matches w+w" true
    (Pattern.matches pat2 (Expr.add (Expr.var "X") (Expr.var "X")) <> None);
  Alcotest.(check bool) "x+y does not match w+w" true
    (Pattern.matches pat2 (Expr.add (Expr.var "X") (Expr.var "Y")) = None)

let test_pattern_rewrite () =
  let lhs = Binary (Mul, Wildcard 1, Expr.int 2) in
  let rhs = Binary (Add, Wildcard 1, Wildcard 1) in
  let before = Expr.add (Expr.mul (Expr.var "A") (Expr.int 2)) (Expr.int 1) in
  let after = Pattern.rewrite ~lhs ~rhs before in
  Alcotest.check e "a*2 -> a+a"
    (Expr.add (Expr.add (Expr.var "A") (Expr.var "A")) (Expr.int 1))
    after

let test_pattern_find_all () =
  let pat = Fun_call ("SIN", [ Wildcard 1 ]) in
  let x =
    Expr.add (Expr.call "SIN" [ Expr.var "A" ]) (Expr.call "SIN" [ Expr.int 2 ])
  in
  Alcotest.(check int) "two matches" 2 (List.length (Pattern.find_all pat x))

(* ----- statements ----- *)

let test_stmt_fresh_ids () =
  let a = Stmt.assign (Var "X") (Expr.int 1) in
  let b = Stmt.assign (Var "X") (Expr.int 1) in
  Alcotest.(check bool) "distinct sids" true (a.sid <> b.sid)

let test_stmt_copy_fresh () =
  let s =
    Stmt.do_ "I" ~init:(Expr.int 1) ~limit:(Expr.int 10)
      [ Stmt.assign (Var "X") (Expr.var "I") ]
  in
  let c = Stmt.copy s in
  Alcotest.(check bool) "copy has fresh id" true (c.sid <> s.sid);
  match (s.kind, c.kind) with
  | Do d1, Do d2 ->
    Alcotest.(check bool) "body ids fresh" true
      ((List.hd d1.body).sid <> (List.hd d2.body).sid);
    Alcotest.(check bool) "info not shared" true (not (d1.info == d2.info))
  | _ -> Alcotest.fail "expected Do"

let test_stmt_queries () =
  let body =
    [ Stmt.assign (Var "X") (Expr.int 1);
      Stmt.do_ "I" ~init:(Expr.int 1) ~limit:(Expr.var "N")
        [ Stmt.assign (Ref ("A", [ Expr.var "I" ])) (Expr.var "X") ] ]
  in
  Alcotest.(check (list string)) "assigned" [ "A"; "I"; "X" ] (Stmt.assigned_names body);
  Alcotest.(check bool) "mentions N" true (Stmt.mentions "N" body);
  Alcotest.(check int) "loops found" 1 (List.length (Stmt.loops body));
  Alcotest.(check int) "all stmts" 3 (List.length (Stmt.all_stmts body))

let test_stmt_rewrite () =
  let body =
    [ Stmt.assign (Var "X") (Expr.int 1);
      Stmt.mk Continue;
      Stmt.assign (Var "Y") (Expr.int 2) ]
  in
  let out =
    Stmt.rewrite
      (fun s -> match s.kind with Continue -> [] | _ -> [ s ])
      body
  in
  Alcotest.(check int) "continue removed" 2 (List.length out)

(* ----- symbol tables ----- *)

let test_symtab () =
  let t = Symtab.create () in
  Alcotest.(check bool) "implicit I integer" true (Symtab.implicit_type "IVAL" = Integer);
  Alcotest.(check bool) "implicit X real" true (Symtab.implicit_type "XVAL" = Real);
  Symtab.define t (Symtab.mk_symbol ~typ:Real ~dims:[ (Expr.int 1, Expr.int 10) ] "ARR");
  Alcotest.(check bool) "is_array" true (Symtab.is_array t "arr");
  Alcotest.(check bool) "lookup materializes" true ((Symtab.lookup t "knew").sym_type = Integer);
  Symtab.define t (Symtab.mk_symbol ~param:(Expr.int 5) "NP");
  Alcotest.(check bool) "is_parameter" true (Symtab.is_parameter t "NP")

let test_const_size () =
  let s = Symtab.mk_symbol ~dims:[ (Expr.int 1, Expr.int 4); (Expr.int 0, Expr.int 2) ] "A" in
  Alcotest.(check (option int)) "4x3" (Some 12) (Symtab.const_size s);
  let s2 = Symtab.mk_symbol ~dims:[ (Expr.int 1, Expr.var "N") ] "B" in
  Alcotest.(check (option int)) "symbolic" None (Symtab.const_size s2)

(* ----- consistency ----- *)

let test_consistency_wildcard () =
  let u = Punit.create "T" in
  u.pu_body <- [ Stmt.assign (Var "X") (Wildcard 1) ];
  Alcotest.(check bool) "wildcard rejected" true
    (match Consistency.check_unit u with
    | () -> false
    | exception Consistency.Violation _ -> true)

let test_consistency_goto () =
  let u = Punit.create "T" in
  u.pu_body <- [ Stmt.mk (Goto 99) ];
  Alcotest.(check bool) "dangling goto rejected" true
    (match Consistency.check_unit u with
    | () -> false
    | exception Consistency.Violation _ -> true);
  u.pu_body <- [ Stmt.mk (Goto 99); Stmt.mk ~label:99 Continue ];
  Consistency.check_unit u

let test_consistency_dims () =
  let u = Punit.create "T" in
  Symtab.define u.pu_symtab
    (Symtab.mk_symbol ~typ:Real ~dims:[ (Expr.int 1, Expr.int 5); (Expr.int 1, Expr.int 5) ] "A");
  u.pu_body <- [ Stmt.assign (Ref ("A", [ Expr.int 1 ])) (Expr.int 0) ];
  Alcotest.(check bool) "rank mismatch rejected" true
    (match Consistency.check_unit u with
    | () -> false
    | exception Consistency.Violation _ -> true)

(* hand-written structural equal/compare: Wildcard identity is pinned
   (Wildcard i equals only Wildcard i — the pattern matcher's
   non-linearity depends on it), equal and compare must agree, and
   equal expressions must hash alike *)
let test_equal_compare_hash () =
  Alcotest.(check bool) "wildcard reflexive" true
    (Expr.equal (Wildcard 1) (Wildcard 1));
  Alcotest.(check bool) "wildcard 1 <> wildcard 2" false
    (Expr.equal (Wildcard 1) (Wildcard 2));
  Alcotest.(check bool) "wildcard <> var" false
    (Expr.equal (Wildcard 1) (Var "W1"));
  let samples =
    [ Expr.int 0; Expr.int 7; Expr.var "I"; Expr.var "J";
      Real_lit 1.5; Real_lit nan; Logical_lit true; Char_lit "X";
      Wildcard 1; Wildcard 2;
      Expr.add (Expr.var "I") (Expr.int 1);
      Expr.add (Expr.var "I") (Expr.int 2);
      Expr.mul (Expr.var "I") (Expr.int 1);
      Expr.call "MOD" [ Expr.var "I"; Expr.int 2 ];
      Ref ("A", [ Expr.var "I" ]);
      Ref ("A", [ Expr.var "J" ]);
      Unary (Neg, Expr.var "I") ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool) "compare=0 iff equal" (Expr.equal a b)
            (Expr.compare a b = 0);
          if Expr.equal a b then
            Alcotest.(check int) "equal implies same hash" (Expr.hash a)
              (Expr.hash b))
        samples;
      (* NaN consistency: equal must agree with compare, unlike (=) *)
      Alcotest.(check bool) "self-equal (incl. nan)" true (Expr.equal a a))
    samples;
  Alcotest.(check bool) "compare antisymmetric" true
    (Expr.compare (Expr.var "I") (Expr.var "J")
     = -Expr.compare (Expr.var "J") (Expr.var "I"))

(* the unit fingerprint and the touch seam: Program.touch bumps the
   unit version, identical content refingerprints identically, edited
   content differently *)
let test_fingerprint_memo () =
  let p =
    Frontend.Parser.parse_string
      "      PROGRAM M\n      INTEGER I\n      I = 1\n      I = I + 1\n\
      \      PRINT *, I\n      END\n"
  in
  let u = Program.main p in
  let v0 = Punit.version u in
  let fp1 = Punit.fingerprint u in
  Alcotest.(check string) "repeat call returns the same fingerprint" fp1
    (Punit.fingerprint u);
  Program.touch p u;
  Alcotest.(check bool) "touch bumps the version" true (Punit.version u > v0);
  Alcotest.(check string) "unchanged content refingerprints identically" fp1
    (Punit.fingerprint u);
  Program.touch p u;
  u.pu_body <- List.rev u.pu_body;
  Alcotest.(check bool) "edited content changes the fingerprint" true
    (not (String.equal (Punit.fingerprint u) fp1))

let test_program_merge () =
  let a = Program.create [ Punit.create "MAIN" ] in
  let b = Program.create [ Punit.create ~kind:Subroutine "SUB" ] in
  let m = Program.merge a b in
  Alcotest.(check int) "two units" 2 (List.length (Program.units m));
  Alcotest.(check bool) "duplicate rejected" true
    (match Program.merge m b with
    | _ -> false
    | exception Invalid_argument _ -> true)

let tests =
  [ ("expr constructors", `Quick, test_constructors);
    ("expr simplify", `Quick, test_simplify);
    ("expr traversal", `Quick, test_traversal);
    ("expr rename", `Quick, test_rename);
    ("pattern basic", `Quick, test_pattern_basic);
    ("pattern nonlinear wildcards", `Quick, test_pattern_nonlinear);
    ("pattern rewrite", `Quick, test_pattern_rewrite);
    ("pattern find_all", `Quick, test_pattern_find_all);
    ("stmt fresh ids", `Quick, test_stmt_fresh_ids);
    ("stmt copy freshness", `Quick, test_stmt_copy_fresh);
    ("stmt queries", `Quick, test_stmt_queries);
    ("stmt rewrite", `Quick, test_stmt_rewrite);
    ("symtab basics", `Quick, test_symtab);
    ("symtab const_size", `Quick, test_const_size);
    ("consistency: wildcard", `Quick, test_consistency_wildcard);
    ("consistency: goto", `Quick, test_consistency_goto);
    ("consistency: dims", `Quick, test_consistency_dims);
    ("program merge", `Quick, test_program_merge);
    ("punit fingerprint memo", `Quick, test_fingerprint_memo);
    ("expr equal/compare/hash", `Quick, test_equal_compare_hash) ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_simplify_preserves; prop_subst_var ]
