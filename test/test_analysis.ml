(* Tests for the analysis library: loop nests, access extraction, scalar
   def/use classification. *)

open Fir

let parse = Frontend.Parser.parse_string

let body_of src = (Program.main (parse src)).pu_body

let test_nests () =
  let src =
    "      PROGRAM T\n\
     \      DO I = 1, 4\n\
     \        DO J = 1, 4\n\
     \          X = X + 1.0\n\
     \        END DO\n\
     \        DO K = 1, 4\n\
     \          X = X + 1.0\n\
     \        END DO\n\
     \      END DO\n\
     \      END\n"
  in
  let u = Program.main (parse src) in
  let nests = Analysis.Loops.nests_of_unit u in
  Alcotest.(check int) "three nests" 3 (List.length nests);
  let idx n = List.map (fun (l : Analysis.Loops.loop) -> (match l.index with Symbolic.Atom.Avar v -> v | _ -> "?")) n.Analysis.Loops.loops in
  Alcotest.(check (list string)) "first" [ "I" ] (idx (List.nth nests 0));
  Alcotest.(check (list string)) "second" [ "I"; "J" ] (idx (List.nth nests 1));
  Alcotest.(check (list string)) "third" [ "I"; "K" ] (idx (List.nth nests 2))

let test_disqualifying_control () =
  let b1 = body_of "      PROGRAM T\n      DO I = 1, 3\n        GOTO 10\n 10     CONTINUE\n      END DO\n      END\n" in
  (match (List.hd b1).kind with
  | Ast.Do d ->
    Alcotest.(check bool) "goto disqualifies" true
      (Analysis.Loops.has_disqualifying_control d.body)
  | _ -> Alcotest.fail "expected do");
  let b2 = body_of "      PROGRAM T\n      DO I = 1, 3\n        X = 1.0\n      END DO\n      END\n" in
  match (List.hd b2).kind with
  | Ast.Do d ->
    Alcotest.(check bool) "clean body ok" false
      (Analysis.Loops.has_disqualifying_control d.body)
  | _ -> Alcotest.fail "expected do"

let test_access_extraction () =
  let src =
    "      PROGRAM T\n\
     \      REAL A(10), B(10)\n\
     \      DO I = 1, 9\n\
     \        A(I) = B(I + 1) + A(I)\n\
     \        IF (I .GT. 2) B(I) = 0.0\n\
     \      END DO\n\
     \      END\n"
  in
  let u = Program.main (parse src) in
  match (List.hd u.pu_body).kind with
  | Ast.Do d ->
    let accs = Analysis.Access.of_block d.body in
    let writes = List.filter (fun (a : Analysis.Access.t) -> a.kind = Analysis.Access.Write) accs in
    let reads = List.filter (fun (a : Analysis.Access.t) -> a.kind = Analysis.Access.Read) accs in
    Alcotest.(check int) "two writes" 2 (List.length writes);
    Alcotest.(check int) "two reads" 2 (List.length reads);
    let bw = List.find (fun (a : Analysis.Access.t) -> a.array = "B") writes in
    Alcotest.(check bool) "B write conditional" true bw.conditional;
    let aw = List.find (fun (a : Analysis.Access.t) -> a.array = "A") writes in
    Alcotest.(check bool) "A write unconditional" false aw.conditional
  | _ -> Alcotest.fail "expected do"

let test_access_by_array () =
  let src =
    "      PROGRAM T\n\
     \      REAL A(10), B(10)\n\
     \      A(1) = B(1) + B(2) + A(2)\n\
     \      END\n"
  in
  let u = Program.main (parse src) in
  let groups = Analysis.Access.by_array (Analysis.Access.of_block u.pu_body) in
  Alcotest.(check int) "two arrays" 2 (List.length groups);
  Alcotest.(check int) "A has 2 accesses" 2 (List.length (List.assoc "A" groups));
  Alcotest.(check int) "B has 2 accesses" 2 (List.length (List.assoc "B" groups))

let classify_src src =
  let u = Program.main (parse src) in
  match (List.hd u.pu_body).kind with
  | Ast.Do d -> Analysis.Defuse.classify d.body
  | _ -> Alcotest.fail "expected do"

let cls = function
  | Analysis.Defuse.Read_only -> "ro"
  | Analysis.Defuse.Private -> "priv"
  | Analysis.Defuse.Exposed -> "exp"

let test_defuse_private () =
  let c =
    classify_src
      "      PROGRAM T\n\
       \      DO I = 1, 5\n\
       \        T = I * 2\n\
       \        X = X + T\n\
       \      END DO\n\
       \      END\n"
  in
  Alcotest.(check string) "T private" "priv" (cls (List.assoc "T" c));
  Alcotest.(check string) "X exposed" "exp" (cls (List.assoc "X" c));
  Alcotest.(check string) "I read only (loop index)" "ro" (cls (List.assoc "I" c))

let test_defuse_conditional_write () =
  let c =
    classify_src
      "      PROGRAM T\n\
       \      DO I = 1, 5\n\
       \        IF (I .GT. 2) T = 1.0\n\
       \        Y = T + Y\n\
       \      END DO\n\
       \      END\n"
  in
  (* a conditional write does not dominate the read: T is exposed *)
  Alcotest.(check string) "T exposed" "exp" (cls (List.assoc "T" c))

let test_defuse_both_branches () =
  let c =
    classify_src
      "      PROGRAM T\n\
       \      DO I = 1, 5\n\
       \        IF (I .GT. 2) THEN\n\
       \          T = 1.0\n\
       \        ELSE\n\
       \          T = 2.0\n\
       \        END IF\n\
       \        Y = T + Y\n\
       \      END DO\n\
       \      END\n"
  in
  (* written in both branches: dominates the later read *)
  Alcotest.(check string) "T private" "priv" (cls (List.assoc "T" c))

let test_defuse_inner_loop_no_dominate () =
  let c =
    classify_src
      "      PROGRAM T\n\
       \      DO I = 1, 5\n\
       \        DO J = 1, K\n\
       \          T = J * 1.0\n\
       \        END DO\n\
       \        Y = T + Y\n\
       \      END DO\n\
       \      END\n"
  in
  (* the inner loop may run zero times: T does not dominate *)
  Alcotest.(check string) "T exposed" "exp" (cls (List.assoc "T" c));
  Alcotest.(check string) "J private (header write)" "priv" (cls (List.assoc "J" c))

let test_defuse_read_within_inner () =
  let c =
    classify_src
      "      PROGRAM T\n\
       \      DO I = 1, 5\n\
       \        T = 0.0\n\
       \        DO J = 1, 4\n\
       \          T = T + J\n\
       \        END DO\n\
       \        Y = T + Y\n\
       \      END DO\n\
       \      END\n"
  in
  (* T = 0 dominates: reads inside the inner loop are covered *)
  Alcotest.(check string) "T private" "priv" (cls (List.assoc "T" c))

let tests =
  [ ("loop nests", `Quick, test_nests);
    ("disqualifying control", `Quick, test_disqualifying_control);
    ("access extraction", `Quick, test_access_extraction);
    ("access grouping", `Quick, test_access_by_array);
    ("defuse private/exposed", `Quick, test_defuse_private);
    ("defuse conditional write", `Quick, test_defuse_conditional_write);
    ("defuse both branches dominate", `Quick, test_defuse_both_branches);
    ("defuse inner loop no dominate", `Quick, test_defuse_inner_loop_no_dominate);
    ("defuse read within inner loop", `Quick, test_defuse_read_within_inner) ]
