(* Tests for the transformation passes: induction substitution,
   reduction recognition, privatization, constant propagation, inlining,
   and the parallelization driver. *)

open Fir

let parse = Frontend.Parser.parse_string

(* semantic oracle: a pass must not change observable behaviour *)
let preserves_semantics name transform src =
  let p0 = parse src in
  let c0 = Machine.Interp.run_full p0 in
  let p1 = parse src in
  transform p1;
  let c1 = Machine.Interp.run_full p1 in
  Alcotest.(check (list string)) (name ^ ": output") c0.cap_result.output
    c1.cap_result.output;
  Alcotest.(check bool) (name ^ ": memory") true (c0.cap_arrays = c1.cap_arrays)

(* each [(label, src, expected)] of [cases]: [transform] preserves its
   semantics, and the whole pipeline, under both configurations, prints
   [expected] *)
let check_cases transform cases =
  List.iter
    (fun (label, src, expected) ->
      preserves_semantics label transform src;
      List.iter
        (fun (mode, cfg) ->
          let t = Core.Pipeline.compile cfg src in
          Alcotest.(check (list string)) (label ^ ": compiled " ^ mode) [ expected ]
            (Machine.Interp.run t.program).output)
        [ ("polaris", Core.Config.polaris ()); ("baseline", Core.Config.baseline ()) ])
    cases

(* ----- induction ----- *)

let trfd_src =
  "      PROGRAM T\n\
   \      INTEGER M, N, I, J, K, X, X0\n\
   \      PARAMETER (M = 7, N = 9)\n\
   \      REAL A(400)\n\
   \      X0 = 0\n\
   \      DO I = 0, M - 1\n\
   \        X = X0\n\
   \        DO J = 0, N - 1\n\
   \          DO K = 0, J - 1\n\
   \            X = X + 1\n\
   \            A(X) = X * 0.5\n\
   \          END DO\n\
   \        END DO\n\
   \        X0 = X0 + (N**2 + N) / 2\n\
   \      END DO\n\
   \      PRINT *, X, X0\n\
   \      END\n"

let test_induction_trfd () =
  preserves_semantics "trfd" (fun p -> ignore (Passes.Induction.run p)) trfd_src;
  let p = parse trfd_src in
  let subs = Passes.Induction.run p in
  Alcotest.(check bool) "X0 substituted" true (List.mem_assoc "X0" subs);
  Alcotest.(check bool) "X substituted" true (List.mem_assoc "X" subs);
  (* the recurrences inside the nest are gone (the last-value
     assignments after each loop are allowed to remain) *)
  let u = Program.main p in
  let in_k_loop =
    Stmt.fold
      (fun acc (s : Ast.stmt) ->
        match s.kind with
        | Ast.Do d when d.index = "K" ->
          acc
          || Stmt.exists
               (fun (s : Ast.stmt) ->
                 match s.kind with
                 | Ast.Assign (Ast.Var ("X" | "X0"), _) -> true
                 | _ -> false)
               d.body
        | _ -> acc)
      false u.pu_body
  in
  Alcotest.(check bool) "increments removed from the nest" false in_k_loop

let test_induction_cascaded () =
  let src =
    "      PROGRAM T\n\
     \      INTEGER N, I, J, K1, K2\n\
     \      PARAMETER (N = 7)\n\
     \      REAL B(2000)\n\
     \      K1 = 0\n\
     \      K2 = 0\n\
     \      DO I = 1, N\n\
     \        DO J = 1, I\n\
     \          K1 = K1 + 1\n\
     \          B(K1) = B(K1) + 1.0\n\
     \          K2 = K2 + K1\n\
     \        END DO\n\
     \        B(K2) = B(K2) - 1.0\n\
     \      END DO\n\
     \      PRINT *, K1, K2\n\
     \      END\n"
  in
  preserves_semantics "cascaded" (fun p -> ignore (Passes.Induction.run p)) src

let test_induction_step () =
  (* increment by the loop index (a first-order polynomial sum) *)
  let src =
    "      PROGRAM T\n\
     \      INTEGER I, K\n\
     \      REAL A(500)\n\
     \      K = 0\n\
     \      DO I = 1, 20\n\
     \        K = K + I\n\
     \        A(K) = I * 1.0\n\
     \      END DO\n\
     \      PRINT *, K\n\
     \      END\n"
  in
  preserves_semantics "index increment" (fun p -> ignore (Passes.Induction.run p)) src;
  let p = parse src in
  let subs = Passes.Induction.run p in
  Alcotest.(check bool) "K substituted" true (List.mem_assoc "K" subs)

let test_induction_conditional_rejected () =
  let src =
    "      PROGRAM T\n\
     \      INTEGER I, K\n\
     \      K = 0\n\
     \      DO I = 1, 10\n\
     \        IF (I .GT. 5) K = K + 1\n\
     \      END DO\n\
     \      PRINT *, K\n\
     \      END\n"
  in
  let p = parse src in
  let subs = Passes.Induction.run p in
  Alcotest.(check bool) "conditional induction rejected" false (List.mem_assoc "K" subs);
  preserves_semantics "conditional untouched" (fun p -> ignore (Passes.Induction.run p)) src

let test_induction_baseline_triangular_rejected () =
  let p = parse trfd_src in
  let subs = Passes.Induction.run ~generalized:false p in
  (* classic mode may still solve X within the rectangular innermost K
     loop, but not across the triangular J level *)
  Alcotest.(check bool) "no triangular X substitution" false
    (List.mem ("X", "J") subs || List.mem ("X", "I") subs);
  Alcotest.(check bool) "classic mode takes rectangular X0" true
    (List.mem_assoc "X0" subs);
  preserves_semantics "baseline induction" (fun p ->
      ignore (Passes.Induction.run ~generalized:false p))
    trfd_src

let test_induction_geometric () =
  let src =
    "      PROGRAM T\n\
     \      INTEGER I, K\n\
     \      REAL A(40), W\n\
     \      K = 1\n\
     \      W = 1.0\n\
     \      DO I = 1, 12\n\
     \        K = K * 2\n\
     \        W = W * 0.5\n\
     \        A(I) = K * W\n\
     \      END DO\n\
     \      PRINT *, K, W, A(12)\n\
     \      END\n"
  in
  preserves_semantics "geometric" (fun p -> ignore (Passes.Induction.run p)) src;
  let p = parse src in
  let subs = Passes.Induction.run p in
  Alcotest.(check bool) "K substituted (multiplicative)" true (List.mem_assoc "K" subs);
  Alcotest.(check bool) "W substituted (multiplicative)" true (List.mem_assoc "W" subs);
  (* the recurrences are really gone from the loop body *)
  let u = Program.main p in
  let updates_left =
    Stmt.fold
      (fun acc (s : Ast.stmt) ->
        match s.kind with
        | Ast.Do d ->
          acc
          || Stmt.exists
               (fun (s : Ast.stmt) ->
                 match Passes.Induction.is_induction_stmt s with
                 | Some (("K" | "W"), _) -> true
                 | _ -> false)
               d.body
        | _ -> acc)
      false u.pu_body
  in
  Alcotest.(check bool) "updates removed" false updates_left

let test_induction_geometric_unsafe_factor_rejected () =
  (* 0.9 is not an exact power of two: the closed form would drift from
     the iterated products in floating point, so it must be left alone *)
  let src =
    "      PROGRAM T\n\
     \      REAL W\n\
     \      W = 1.0\n\
     \      DO I = 1, 10\n\
     \        W = W * 0.9\n\
     \      END DO\n\
     \      PRINT *, W\n\
     \      END\n"
  in
  let p = parse src in
  let subs = Passes.Induction.run p in
  Alcotest.(check bool) "0.9 factor rejected" false (List.mem_assoc "W" subs);
  preserves_semantics "unsafe factor untouched" (fun p -> ignore (Passes.Induction.run p)) src

(* a CALL or a user FUNCTION reference in the loop may assign an
   increment's names (its actuals, any COMMON member), and a user
   function's result is no loop-invariant increment *)
let test_induction_calls () =
  check_cases
    (fun p -> ignore (Passes.Induction.run p))
    [ ( "CALL assigns the increment",
        "      PROGRAM T\n      INTEGER N, I, S\n      N = 5\n      S = 0\n\
        \      DO 10 I = 1, 3\n        S = S + N\n        CALL BUMP(N)\n   10 CONTINUE\n\
        \      PRINT *, N, S\n      END\n      SUBROUTINE BUMP(M)\n      INTEGER M\n\
        \      M = M + 10\n      END\n",
        "35 45" );
      ( "FUNCTION assigns the increment",
        "      PROGRAM T\n      INTEGER N, I, S, J\n      N = 5\n      S = 0\n\
        \      DO 10 I = 1, 3\n        S = S + N\n        J = IB(N)\n   10 CONTINUE\n\
        \      PRINT *, N, S\n      END\n      INTEGER FUNCTION IB(M)\n      INTEGER M\n\
        \      M = M + 10\n      IB = M\n      END\n",
        "35 45" );
      ( "CALL assigns a COMMON increment",
        "      PROGRAM T\n      INTEGER N, I, S\n      COMMON /CFG/ N\n      N = 5\n\
        \      S = 0\n      DO 10 I = 1, 3\n        S = S + N\n        CALL BUMP\n\
        \   10 CONTINUE\n      PRINT *, N, S\n      END\n      SUBROUTINE BUMP\n\
        \      INTEGER N\n      COMMON /CFG/ N\n      N = N + 10\n      END\n",
        "35 45" );
      ( "FUNCTION result as increment",
        "      PROGRAM T\n      INTEGER S, I, K\n      COMMON /C/ K\n      K = 0\n\
        \      S = 0\n      DO 10 I = 1, 3\n        S = S + NEXT(I)\n   10 CONTINUE\n\
        \      PRINT *, S\n      END\n      INTEGER FUNCTION NEXT(J)\n\
        \      INTEGER J, K\n      COMMON /C/ K\n      K = K + J\n      NEXT = K\n\
        \      END\n",
        "10" ) ]

(* ----- reduction ----- *)

let find_reductions src =
  let p = parse src in
  let u = Program.main p in
  match (List.hd u.pu_body).kind with
  | Ast.Do d -> Passes.Reduction.find u.pu_symtab d.body
  | _ -> Alcotest.fail "expected do"

let test_reduction_scalar () =
  let rs =
    find_reductions
      "      PROGRAM T\n\
       \      DO I = 1, 10\n\
       \        S = S + I * 2.0\n\
       \      END DO\n\
       \      END\n"
  in
  match rs with
  | [ { red = { red_var = "S"; red_op = Ast.Rsum; red_kind = Ast.Single_address; red_form = Ast.Private_copies }; _ } ] -> ()
  | _ -> Alcotest.fail "expected scalar sum reduction"

let test_reduction_reassociated () =
  let rs =
    find_reductions
      "      PROGRAM T\n\
       \      DO I = 1, 10\n\
       \        S = S + A + B\n\
       \      END DO\n\
       \      END\n"
  in
  Alcotest.(check int) "reassociated sum found" 1 (List.length rs)

let test_reduction_histogram () =
  let rs =
    find_reductions
      "      PROGRAM T\n\
       \      INTEGER NB(10)\n\
       \      REAL F(100)\n\
       \      DO I = 1, 10\n\
       \        K = NB(I)\n\
       \        F(K) = F(K) + 1.0\n\
       \      END DO\n\
       \      END\n"
  in
  match rs with
  | [ { red = { red_var = "F"; red_kind = Ast.Histogram; _ }; _ } ] -> ()
  | _ -> Alcotest.fail "expected histogram reduction"

let test_reduction_rejected_other_use () =
  let rs =
    find_reductions
      "      PROGRAM T\n\
       \      REAL F(100)\n\
       \      DO I = 1, 10\n\
       \        F(I) = F(I) + 1.0\n\
       \        X = F(3)\n\
       \      END DO\n\
       \      END\n"
  in
  Alcotest.(check int) "other use blocks reduction" 0 (List.length rs)

let test_reduction_max () =
  let rs =
    find_reductions
      "      PROGRAM T\n\
       \      DO I = 1, 10\n\
       \        S = MAX(S, I * 1.0)\n\
       \      END DO\n\
       \      END\n"
  in
  match rs with
  | [ { red = { red_op = Ast.Rmax; _ }; _ } ] -> ()
  | _ -> Alcotest.fail "expected MAX reduction"

(* ----- constprop ----- *)

let test_constprop_basic () =
  let src =
    "      PROGRAM T\n\
     \      INTEGER N\n\
     \      PARAMETER (N = 4)\n\
     \      K = N * 2\n\
     \      L = K + 1\n\
     \      PRINT *, L\n\
     \      END\n"
  in
  preserves_semantics "constprop" Passes.Constprop.run src;
  let p = parse src in
  Passes.Constprop.run p;
  let u = Program.main p in
  let has_const_9 =
    Stmt.exists
      (fun (s : Ast.stmt) ->
        match s.kind with
        | Ast.Assign (Ast.Var "L", Ast.Int_lit 9) -> true
        | _ -> false)
      u.pu_body
  in
  Alcotest.(check bool) "L = 9 folded" true has_const_9

let test_constprop_goto_safe () =
  (* the CLOUD3D regression: facts must die at backward-goto targets *)
  let src =
    "      PROGRAM T\n\
     \      K = 0\n\
     \      R = 1.0\n\
     \ 10   CONTINUE\n\
     \      K = K + 1\n\
     \      R = R * 0.5\n\
     \      IF (K .LT. 5 .AND. R .GT. 0.01) GOTO 10\n\
     \      PRINT *, K\n\
     \      END\n"
  in
  preserves_semantics "goto loop" Passes.Constprop.run src

let test_constprop_kill_through_loop () =
  let src =
    "      PROGRAM T\n\
     \      K = 1\n\
     \      DO I = 1, 3\n\
     \        K = K * 2\n\
     \      END DO\n\
     \      PRINT *, K\n\
     \      END\n"
  in
  preserves_semantics "kill through loop" Passes.Constprop.run src

(* an assignment and a PARAMETER convert to the declared type: the
   propagated expression must carry that conversion *)
let test_constprop_store_conversion () =
  check_cases Passes.Constprop.run
    [ ( "REAL X = 7 / 2",
        "      PROGRAM T\n      REAL X, Y\n      X = 7 / 2\n      Y = X / 2\n\
        \      PRINT *, Y\n      END\n",
        "1.5" );
      ( "PARAMETER (H = 3, M = 2.75)",
        "      PROGRAM T\n      REAL H\n      INTEGER M\n\
        \      PARAMETER (H = 3, M = 2.75)\n      PRINT *, H / 2, M * 2\n      END\n",
        "1.5 4" ) ]

(* arguments pass by reference: a CALL or a user FUNCTION reference may
   assign a variable actual, so its value before the call is no fact
   after it: in the statements that follow, in an enclosing loop's body,
   after an IF that makes the call, or in the branches of an IF whose
   condition makes it *)
let by_reference =
  [ ( "CALL assigns its actual",
      "      PROGRAM T\n      REAL X, A(40)\n      X = 0.0\n      CALL S(X, A, 40)\n\
      \      PRINT *, X\n      END\n      SUBROUTINE S(X, A, N)\n      INTEGER N, I\n\
      \      REAL X, A(N)\n      DO 10 I = 1, N\n        A(I) = I\n   10 CONTINUE\n\
      \      X = A(N)\n      END\n",
      "40" );
    ( "CALL in a loop body and an IF",
      "      PROGRAM T\n      REAL X, Y, S\n      INTEGER I\n      X = 1.0\n      S = 0.0\n\
      \      DO 10 I = 1, 3\n        S = S + X\n        CALL BUMP(X)\n   10 CONTINUE\n\
      \      Y = 2.0\n      IF (S .GT. 0.0) THEN\n        CALL BUMP(Y)\n      END IF\n\
      \      PRINT *, X, Y, S\n      END\n      SUBROUTINE BUMP(Z)\n      REAL Z\n\
      \      Z = Z + 1.0\n      END\n",
      "4 3 6" );
    ( "FUNCTION assigns its actual",
      "      PROGRAM T\n      REAL X, Y\n      X = 1.0\n      Y = F(X)\n\
      \      PRINT *, X, Y\n      END\n      REAL FUNCTION F(Z)\n      REAL Z\n\
      \      Z = Z + 1.0\n      F = Z * 2.0\n      END\n",
      "2 4" );
    ( "FUNCTION in an IF condition",
      "      PROGRAM T\n      REAL X, Y\n      X = 1.0\n      Y = 0.0\n\
      \      IF (F(X) .GT. 0.0) THEN\n        Y = X\n      END IF\n      PRINT *, X, Y\n\
      \      END\n      REAL FUNCTION F(Z)\n      REAL Z\n      Z = Z + 1.0\n\
      \      F = Z * 2.0\n      END\n",
      "2 2" );
    ( "CALL without actuals assigns a COMMON member",
      "      PROGRAM T\n      INTEGER N\n      COMMON /CFG/ N\n      N = 5\n      CALL BUMP\n\
      \      PRINT *, N\n      END\n      SUBROUTINE BUMP\n      INTEGER N\n\
      \      COMMON /CFG/ N\n      N = N + 10\n      END\n",
      "15" );
    ( "CALL without actuals in a loop body",
      "      PROGRAM T\n      INTEGER N, I, A(3)\n      COMMON /CFG/ N\n      N = 5\n\
      \      DO 10 I = 1, 3\n        A(I) = N\n        CALL BUMP\n   10 CONTINUE\n\
      \      PRINT *, A(1), A(2), A(3), N\n      END\n      SUBROUTINE BUMP\n\
      \      INTEGER N\n      COMMON /CFG/ N\n      N = N + 10\n      END\n",
      "5 15 25 35" );
    ( "an expression actual stays a temporary",
      "      PROGRAM T\n      INTEGER K, J, I\n      K = 0\n      DO 10 I = 1, 4\n\
      \        K = K + I\n   10 CONTINUE\n      J = 1\n      CALL S(K + 0)\n\
      \      PRINT *, K, J, IDBL(K * 1)\n      END\n      SUBROUTINE S(M)\n      INTEGER M\n\
      \      M = M * 2\n      END\n      INTEGER FUNCTION IDBL(M)\n      INTEGER M\n\
      \      M = M * 2\n      IDBL = M\n      END\n",
      "10 1 20" ) ]

let test_constprop_by_reference () = check_cases Passes.Constprop.run by_reference

(* ----- inlining ----- *)

let test_inline_semantics () =
  let src =
    "      PROGRAM T\n\
     \      REAL A(20), B(20)\n\
     \      DO I = 1, 20\n\
     \        A(I) = I * 1.0\n\
     \        B(I) = 0.0\n\
     \      END DO\n\
     \      CALL SAXPY(20, 2.0, A, B)\n\
     \      CALL SAXPY(10, 1.0, A(11), B)\n\
     \      S = 0.0\n\
     \      DO I = 1, 20\n\
     \        S = S + B(I)\n\
     \      END DO\n\
     \      PRINT *, S\n\
     \      END\n\
     \      SUBROUTINE SAXPY(N, ALPHA, X, Y)\n\
     \      INTEGER N, I\n\
     \      REAL ALPHA, X(N), Y(N)\n\
     \      DO I = 1, N\n\
     \        Y(I) = Y(I) + ALPHA * X(I)\n\
     \      END DO\n\
     \      RETURN\n\
     \      END\n"
  in
  preserves_semantics "inline saxpy" (fun p -> ignore (Passes.Inline.run p)) src;
  let p = parse src in
  let stats = Passes.Inline.run p in
  Alcotest.(check int) "two sites expanded" 2 stats.sites_expanded;
  let u = Program.main p in
  let calls_left =
    Stmt.exists
      (fun (s : Ast.stmt) -> match s.kind with Ast.Call _ -> true | _ -> false)
      u.pu_body
  in
  Alcotest.(check bool) "no calls left in main" false calls_left

let test_inline_linearization () =
  (* 2-D formal over a 1-D actual: subscripts are linearized *)
  let src =
    "      PROGRAM T\n\
     \      REAL C(60)\n\
     \      DO I = 1, 60\n\
     \        C(I) = 0.0\n\
     \      END DO\n\
     \      CALL FILL(C, 12, 5)\n\
     \      S = 0.0\n\
     \      DO I = 1, 60\n\
     \        S = S + C(I)\n\
     \      END DO\n\
     \      PRINT *, S\n\
     \      END\n\
     \      SUBROUTINE FILL(D, M, K)\n\
     \      INTEGER M, K, I, J\n\
     \      REAL D(M, K)\n\
     \      DO J = 1, K\n\
     \        DO I = 1, M\n\
     \          D(I, J) = 1.0\n\
     \        END DO\n\
     \      END DO\n\
     \      END\n"
  in
  preserves_semantics "inline linearized" (fun p -> ignore (Passes.Inline.run p)) src

let test_inline_common () =
  let src =
    "      PROGRAM T\n\
     \      INTEGER N\n\
     \      COMMON /CFG/ N\n\
     \      N = 5\n\
     \      CALL BUMP\n\
     \      PRINT *, N\n\
     \      END\n\
     \      SUBROUTINE BUMP\n\
     \      INTEGER N\n\
     \      COMMON /CFG/ N\n\
     \      N = N + 10\n\
     \      END\n"
  in
  preserves_semantics "inline common" (fun p -> ignore (Passes.Inline.run p)) src

let test_inline_interior_return () =
  let src =
    "      PROGRAM T\n\
     \      K = 3\n\
     \      CALL CLAMP(K)\n\
     \      PRINT *, K\n\
     \      K = 30\n\
     \      CALL CLAMP(K)\n\
     \      PRINT *, K\n\
     \      END\n\
     \      SUBROUTINE CLAMP(N)\n\
     \      INTEGER N\n\
     \      IF (N .LT. 10) RETURN\n\
     \      N = 10\n\
     \      RETURN\n\
     \      END\n"
  in
  preserves_semantics "interior return" (fun p -> ignore (Passes.Inline.run p)) src

(* ----- privatization ----- *)

let privatizable src array =
  let p = parse src in
  let u = Program.main p in
  let nest = List.hd (Analysis.Loops.nests_of_unit u) in
  let target = Analysis.Loops.innermost nest in
  let outer_env =
    List.assoc target.Analysis.Loops.stmt.sid (Symbolic.Range_prop.loop_envs u)
  in
  let defs = Passes.Demand.defs_at u ~target:target.Analysis.Loops.stmt.sid in
  Passes.Privatize.analyze ~unit_:u ~outer_env ~defs
    ~d:target.Analysis.Loops.dloop ~array

let test_privatize_simple () =
  let src =
    "      PROGRAM T\n\
     \      REAL W(50), Q(50, 50)\n\
     \      DO K = 1, 50\n\
     \        DO J = 1, 50\n\
     \          W(J) = Q(J, K) * 2.0\n\
     \        END DO\n\
     \        DO J = 1, 50\n\
     \          Q(J, K) = W(J) + 1.0\n\
     \        END DO\n\
     \      END DO\n\
     \      END\n"
  in
  Alcotest.(check bool) "W privatizable" true (privatizable src "W" = Ok ())

let test_privatize_uncovered () =
  let src =
    "      PROGRAM T\n\
     \      REAL W(50), Q(50, 50)\n\
     \      DO K = 1, 50\n\
     \        DO J = 2, 50\n\
     \          W(J) = Q(J, K)\n\
     \        END DO\n\
     \        DO J = 1, 50\n\
     \          Q(J, K) = W(J)\n\
     \        END DO\n\
     \      END DO\n\
     \      END\n"
  in
  (* W(1) is read but never written in the iteration *)
  Alcotest.(check bool) "W not privatizable" true
    (match privatizable src "W" with Error _ -> true | Ok () -> false)

let test_privatize_sweep () =
  let src =
    "      PROGRAM T\n\
     \      REAL W(50), Q(50, 50)\n\
     \      DO K = 1, 50\n\
     \        W(1) = Q(1, K)\n\
     \        DO J = 2, 50\n\
     \          W(J) = Q(J, K) + 0.5 * W(J - 1)\n\
     \        END DO\n\
     \        DO J = 1, 50\n\
     \          Q(J, K) = W(J)\n\
     \        END DO\n\
     \      END DO\n\
     \      END\n"
  in
  Alcotest.(check bool) "forward sweep privatizable" true (privatizable src "W" = Ok ())

let test_privatize_conditional_def () =
  let src =
    "      PROGRAM T\n\
     \      REAL W(50), Q(50, 50)\n\
     \      DO K = 1, 50\n\
     \        DO J = 1, 50\n\
     \          IF (Q(J, K) .GT. 0.0) W(J) = Q(J, K)\n\
     \        END DO\n\
     \        DO J = 1, 50\n\
     \          Q(J, K) = W(J)\n\
     \        END DO\n\
     \      END DO\n\
     \      END\n"
  in
  Alcotest.(check bool) "conditional defs do not cover" true
    (match privatizable src "W" with Error _ -> true | Ok () -> false)

let test_privatize_write_only () =
  let src =
    "      PROGRAM T\n\
     \      INTEGER IX(50)\n\
     \      REAL W(50)\n\
     \      DO K = 1, 50\n\
     \        W(IX(K)) = K * 1.0\n\
     \      END DO\n\
     \      END\n"
  in
  Alcotest.(check bool) "write-only array rejected" true
    (match privatizable src "W" with Error _ -> true | Ok () -> false)

(* ----- dead code ----- *)

let test_deadcode_removes_unused () =
  let src =
    "      PROGRAM T\n\
     \      K = 5\n\
     \      L = K + 1\n\
     \      M = 7\n\
     \      PRINT *, L\n\
     \      END\n"
  in
  preserves_semantics "deadcode" (fun p -> ignore (Passes.Deadcode.run p)) src;
  let p = parse src in
  ignore (Passes.Deadcode.run p);
  let u = Program.main p in
  (* M is write-only and goes; the K -> L chain stays (L printed) *)
  Alcotest.(check bool) "M removed" false (Stmt.mentions "M" u.pu_body);
  Alcotest.(check bool) "K kept" true (Stmt.mentions "K" u.pu_body)

let test_deadcode_fixpoint_chain () =
  let src =
    "      PROGRAM T\n\
     \      A1 = 1\n\
     \      A2 = A1 + 1\n\
     \      A3 = A2 + 1\n\
     \      PRINT *, 0\n\
     \      END\n"
  in
  let p = parse src in
  ignore (Passes.Deadcode.run p);
  let u = Program.main p in
  (* the whole dead chain unravels across sweeps *)
  Alcotest.(check bool) "chain removed" false
    (Stmt.mentions "A1" u.pu_body || Stmt.mentions "A2" u.pu_body
    || Stmt.mentions "A3" u.pu_body)

let test_deadcode_keeps_escaping () =
  let src =
    "      PROGRAM T\n\
     \      INTEGER N\n\
     \      COMMON /CFG/ N\n\
     \      N = 3\n\
     \      CALL SHOW\n\
     \      END\n\
     \      SUBROUTINE SHOW\n\
     \      INTEGER N\n\
     \      COMMON /CFG/ N\n\
     \      PRINT *, N\n\
     \      END\n"
  in
  preserves_semantics "escaping common kept" (fun p -> ignore (Passes.Deadcode.run p)) src;
  let p = parse src in
  ignore (Passes.Deadcode.run p);
  Alcotest.(check bool) "common write kept" true
    (Stmt.mentions "N" (Program.main p).pu_body)

(* a FUNCTION's result variable escapes the unit like a dummy: its last
   assignment is the function's value *)
let function_results =
  [ ( "REAL FUNCTION result",
      "      PROGRAM T\n      REAL Y\n      Y = F(3.0)\n      PRINT *, Y\n      END\n\
      \      REAL FUNCTION F(X)\n      REAL X\n      F = X * 2.0\n      END\n",
      "6" );
    ( "INTEGER FUNCTION summed result",
      "      PROGRAM T\n      INTEGER K\n      K = ISUM(10)\n      PRINT *, K\n      END\n\
      \      INTEGER FUNCTION ISUM(N)\n      INTEGER N, I\n      ISUM = 0\n\
      \      DO 10 I = 1, N\n        ISUM = ISUM + I\n   10 CONTINUE\n      END\n",
      "55" ) ]

let test_deadcode_keeps_results () =
  check_cases (fun p -> ignore (Passes.Deadcode.run p)) function_results

(* ----- end-to-end parallelization fixtures ----- *)

let loop_infos src mode =
  let p = parse src in
  ignore (Passes.Parallelize.run ~mode p);
  let u = Program.main p in
  Stmt.fold
    (fun acc (s : Ast.stmt) ->
      match s.kind with Ast.Do d -> (d.index, d.info) :: acc | _ -> acc)
    [] u.pu_body

let test_parallelize_bdna_privates () =
  let src =
    "      PROGRAM T\n\
     \      INTEGER N, I, J, K, L, P, M, IND(100)\n\
     \      PARAMETER (N = 40)\n\
     \      REAL A(100), X(50, 50), Y(50, 50)\n\
     \      DO I = 2, N\n\
     \        DO J = 1, I - 1\n\
     \          IND(J) = 0\n\
     \          A(J) = X(I, J) - Y(I, J)\n\
     \          IF (A(J) .LT. 20.0) IND(J) = 1\n\
     \        END DO\n\
     \        P = 0\n\
     \        DO K = 1, I - 1\n\
     \          IF (IND(K) .NE. 0) THEN\n\
     \            P = P + 1\n\
     \            IND(P) = K\n\
     \          END IF\n\
     \        END DO\n\
     \        DO L = 1, P\n\
     \          M = IND(L)\n\
     \          X(I, L) = A(M) + 1.0\n\
     \        END DO\n\
     \      END DO\n\
     \      END\n"
  in
  let infos = loop_infos src Passes.Parallelize.Polaris in
  let i_info = List.assoc "I" infos in
  Alcotest.(check bool) "I parallel" true i_info.Ast.par;
  Alcotest.(check bool) "A private" true (List.mem "A" i_info.Ast.privates);
  Alcotest.(check bool) "IND private" true (List.mem "IND" i_info.Ast.privates);
  Alcotest.(check bool) "P private" true (List.mem "P" i_info.Ast.privates);
  let k_info = List.assoc "K" infos in
  Alcotest.(check bool) "K serial" false k_info.Ast.par

let test_parallelize_reduction_annotation () =
  let src =
    "      PROGRAM T\n\
     \      INTEGER NB(64)\n\
     \      REAL F(256)\n\
     \      DO I = 1, 64\n\
     \        NB(I) = I * 3 - 2\n\
     \      END DO\n\
     \      DO I = 1, 64\n\
     \        K = NB(I)\n\
     \        F(K) = F(K) + 0.5\n\
     \      END DO\n\
     \      END\n"
  in
  let infos = loop_infos src Passes.Parallelize.Polaris in
  (* second I loop: histogram reduction on F *)
  let hist =
    List.exists
      (fun (_, (info : Ast.loop_info)) ->
        info.par
        && List.exists
             (fun (r : Ast.reduction) ->
               r.red_var = "F" && r.red_kind = Ast.Histogram)
             info.reductions)
      infos
  in
  Alcotest.(check bool) "histogram annotated" true hist

let test_parallelize_calls_block () =
  let src =
    "      PROGRAM T\n\
     \      REAL A(10)\n\
     \      DO I = 1, 10\n\
     \        CALL F(A, I)\n\
     \      END DO\n\
     \      END\n\
     \      SUBROUTINE F(A, I)\n\
     \      REAL A(10)\n\
     \      INTEGER I\n\
     \      A(I) = 1.0\n\
     \      END\n"
  in
  let infos = loop_infos src Passes.Parallelize.Polaris in
  Alcotest.(check bool) "loop with call serial" false (List.assoc "I" infos).Ast.par

(* a DOALL loop assigning a FUNCTION's result must copy the last value
   out: the caller reads it *)
let test_parallelize_function_result () =
  let src =
    "      PROGRAM T\n      PRINT *, F(40)\n      END\n      REAL FUNCTION F(N)\n\
    \      INTEGER N, I\n      REAL A(100)\n      DO 10 I = 1, N\n        F = I * 2.0\n\
    \        A(I) = F\n   10 CONTINUE\n      END\n"
  in
  List.iter
    (fun mode ->
      let p = parse src in
      ignore (Passes.Parallelize.run ~mode p);
      match Punit.loops (Option.get (Program.find_unit p "F")) with
      | [ (_, d) ] ->
        Alcotest.(check bool) "DOALL" true d.info.par;
        Alcotest.(check bool) "F lastprivate" true (List.mem "F" d.info.lastprivates)
      | _ -> Alcotest.fail "expected one loop")
    [ Passes.Parallelize.Polaris; Passes.Parallelize.Baseline ]

let tests =
  [ ("induction: TRFD", `Quick, test_induction_trfd);
    ("induction: cascaded (Fig 1)", `Quick, test_induction_cascaded);
    ("induction: index increment", `Quick, test_induction_step);
    ("induction: conditional rejected", `Quick, test_induction_conditional_rejected);
    ("induction: baseline triangular rejected", `Quick, test_induction_baseline_triangular_rejected);
    ("induction: geometric (multiplicative)", `Quick, test_induction_geometric);
    ("induction: unsafe geometric factor", `Quick, test_induction_geometric_unsafe_factor_rejected);
    ("induction: calls assign", `Quick, test_induction_calls);
    ("reduction: scalar sum", `Quick, test_reduction_scalar);
    ("reduction: reassociated", `Quick, test_reduction_reassociated);
    ("reduction: histogram", `Quick, test_reduction_histogram);
    ("reduction: other use blocks", `Quick, test_reduction_rejected_other_use);
    ("reduction: MAX", `Quick, test_reduction_max);
    ("constprop: folding", `Quick, test_constprop_basic);
    ("constprop: goto safety", `Quick, test_constprop_goto_safe);
    ("constprop: loop kill", `Quick, test_constprop_kill_through_loop);
    ("constprop: store conversions", `Quick, test_constprop_store_conversion);
    ("constprop: by-reference actuals", `Quick, test_constprop_by_reference);
    ("inline: semantics + full expansion", `Quick, test_inline_semantics);
    ("inline: linearization", `Quick, test_inline_linearization);
    ("inline: common blocks", `Quick, test_inline_common);
    ("inline: interior RETURN", `Quick, test_inline_interior_return);
    ("privatize: simple work array", `Quick, test_privatize_simple);
    ("privatize: uncovered read", `Quick, test_privatize_uncovered);
    ("privatize: forward sweep", `Quick, test_privatize_sweep);
    ("privatize: conditional defs", `Quick, test_privatize_conditional_def);
    ("privatize: write-only rejected", `Quick, test_privatize_write_only);
    ("deadcode: removes unused", `Quick, test_deadcode_removes_unused);
    ("deadcode: fixpoint chain", `Quick, test_deadcode_fixpoint_chain);
    ("deadcode: keeps escaping", `Quick, test_deadcode_keeps_escaping);
    ("deadcode: keeps FUNCTION results", `Quick, test_deadcode_keeps_results);
    ("parallelize: BDNA privates", `Quick, test_parallelize_bdna_privates);
    ("parallelize: reduction annotation", `Quick, test_parallelize_reduction_annotation);
    ("parallelize: calls block", `Quick, test_parallelize_calls_block);
    ("parallelize: FUNCTION result lastprivate", `Quick, test_parallelize_function_result) ]
