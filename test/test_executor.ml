(* The lowered executor (Machine.Interp) against the reference
   tree-walker (Machine.Treewalk).

   Both run the same program under the same configuration with every
   analysis hook attached; the capture (PRINT output, final scalars,
   main-frame arrays, COMMON members), the statement count, the
   simulated time and a digest of the hook trace (on_access,
   on_loop_iter, on_loop_done, on_assign, in order) must agree bit for
   bit, and runs that fault must fault with the same exception and
   message.  Reads whose storage class the declarations do not fix
   (dummies, COMMON members declared with two classes) are pinned too.
   The simulated times of the suite are also pinned to
   golden/simtime.txt, so the cost model cannot drift in both executors
   at once. *)

open Fir

type run = {
  capture : string;  (** the marshalled capture: bit-exact floats *)
  output : string list;
  steps : int;
  time : int;
  events : int;      (** hook events seen *)
  trace : int;       (** rolling hash of the hook events *)
}

(* attach recording hooks to [st]; the returned thunk reads the trace *)
let record (st : Machine.Interp.state) =
  let n = ref 0 and h = ref 0 in
  let mix xs =
    incr n;
    List.iter (fun x -> h := ((!h * 31) + x) land max_int) xs
  in
  st.on_access <-
    Some
      (fun rw name i ->
        mix [ (match rw with Machine.Interp.R -> 1 | W -> 2); Hashtbl.hash name; i ]);
  st.on_loop_iter <- Some (fun sid k time -> mix [ 3; sid; k; time ]);
  st.on_loop_done <- Some (fun sid time -> mix [ 4; sid; time ]);
  st.on_assign <- Some (fun name -> mix [ 5; Hashtbl.hash name ]);
  fun () -> (!n, !h)

let finish (st : Machine.Interp.state) trace (cap : Machine.Interp.capture) =
  let events, trace = trace () in
  { capture = Marshal.to_string cap [ Marshal.No_sharing ];
    output = cap.cap_result.output; steps = st.steps; time = st.time; events;
    trace }

let lowered cfg p =
  match
    let st = Machine.Interp.fresh_state ~cfg p in
    let trace = record st in
    let fr = Machine.Interp.main_frame st in
    Machine.Interp.run_unit_body st fr;
    finish st trace (Machine.Interp.capture_of st fr)
  with
  | r -> Ok r
  | exception e -> Error (Printexc.to_string e)

let reference cfg p =
  match
    let st = Machine.Interp.fresh_state ~cfg p in
    let trace = record st in
    let fr = Machine.Treewalk.main_frame st in
    Machine.Treewalk.run_unit_body st fr;
    finish st trace (Machine.Treewalk.capture_of st fr)
  with
  | r -> Ok r
  | exception e -> Error (Printexc.to_string e)

let check_same label cfg (p : Program.t) =
  match (reference cfg p, lowered cfg p) with
  | Ok r, Ok l ->
    Alcotest.(check (list string)) (label ^ ": output") r.output l.output;
    Alcotest.(check int) (label ^ ": steps") r.steps l.steps;
    Alcotest.(check int) (label ^ ": time") r.time l.time;
    Alcotest.(check int) (label ^ ": hook events") r.events l.events;
    Alcotest.(check int) (label ^ ": hook trace") r.trace l.trace;
    Alcotest.(check bool) (label ^ ": capture bit-identical") true
      (String.equal r.capture l.capture)
  | Error r, Error l -> Alcotest.(check string) (label ^ ": fault") r l
  | Ok _, Error l -> Alcotest.failf "%s: only the lowered executor faulted: %s" label l
  | Error r, Ok _ -> Alcotest.failf "%s: only the reference faulted: %s" label r

let cfg ?seed ?(max_steps = 200_000_000) parallel =
  { (Machine.Interp.default_config ~parallel ?seed ()) with max_steps }

let compile src = (Core.Pipeline.compile (Core.Config.polaris ()) src).program

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)

let test_suite_codes () =
  List.iter
    (fun (c : Suite.Code.t) ->
      let original = Frontend.Parser.parse_string c.source in
      let compiled = compile c.source in
      check_same (c.name ^ " original") (cfg false) original;
      check_same (c.name ^ " compiled serial") (cfg false) compiled;
      check_same (c.name ^ " compiled parallel") (cfg true) compiled)
    Suite.Registry.all

(* the subscripted-subscript scatter the compiler can only mark
   speculative; real LRPD execution must also reproduce the reference
   capture exactly (no reduction, so no reassociation) *)
let test_lrpd_probes () =
  List.iter
    (fun collide ->
      let label = if collide then "LRPD collision" else "LRPD no collision" in
      let p = Frontend.Parser.parse_string (Test_runtime.spec_src ~collide) in
      ignore (Passes.Parallelize.run ~mode:Passes.Parallelize.Polaris p);
      check_same (label ^ " serial") (cfg false) p;
      check_same (label ^ " parallel") (cfg true) p;
      let run, stats = Valid.Oracle.execute_real ~procs:2 p in
      Alcotest.(check int) (label ^ ": speculated") 1 stats.spec_attempts;
      Alcotest.(check int) (label ^ ": rolled back")
        (if collide then 1 else 0)
        stats.spec_failures;
      let exact = { Valid.Oracle.ulp_tol = 0; rel_tol = 0.0 } in
      Alcotest.(check int) (label ^ ": p = 2 capture exact") 0
        (List.length
           (Valid.Oracle.compare_outcomes exact (Valid.Oracle.execute p) run)))
    [ false; true ]

let test_fuzz_seeded () =
  List.iter
    (fun seed ->
      let src = Test_fuzz.gen_program (Util.Prng.create seed) in
      let label = Printf.sprintf "fuzz %d" seed in
      check_same (label ^ " original") (cfg ~seed false)
        (Frontend.Parser.parse_string src);
      check_same (label ^ " compiled parallel") (cfg ~seed true) (compile src))
    Test_parexec.fuzz_seeds

let test_fuel_messages () =
  let spin =
    "      PROGRAM T\n      K = 0\n 10   K = K + 1\n      GOTO 10\n      END\n"
  in
  check_same "GOTO spin" (cfg ~max_steps:10_000 false)
    (Frontend.Parser.parse_string spin);
  List.iter
    (fun name ->
      let p = compile (Suite.Registry.find name).source in
      List.iter
        (fun max_steps ->
          let label = Printf.sprintf "%s fuel %d" name max_steps in
          check_same label (cfg ~max_steps false) p;
          check_same (label ^ " parallel") (cfg ~max_steps true) p)
        [ 1; 777; 5_000 ])
    [ "SWIM"; "TRFD"; "BDNA" ]

let faulting =
  [ ("out of bounds", "      PROGRAM T\n      REAL A(3)\n      A(4) = 1.0\n      END\n");
    ("array as scalar", "      PROGRAM T\n      REAL A(3), X\n      X = A\n      END\n");
    ("scalar subscripted", "      PROGRAM T\n      REAL X, Y\n      Y = X(2)\n      END\n");
    ("zero step", "      PROGRAM T\n      DO I = 1, 3, 0\n      END DO\n      END\n");
    ("division by zero", "      PROGRAM T\n      K = 0\n      J = 3 / K\n      END\n");
    ("unknown subroutine", "      PROGRAM T\n      CALL NOPE(1)\n      END\n");
    ( "wrong arity",
      "      PROGRAM T\n      CALL S(1, 2)\n      END\n      SUBROUTINE S(X)\n      END\n" );
    ("logical arithmetic", "      PROGRAM T\n      LOGICAL L\n      X = L + 1.0\n      END\n") ]

let test_fault_classes () =
  List.iter
    (fun (label, src) -> check_same label (cfg false) (Frontend.Parser.parse_string src))
    faulting

(* unclassified expressions, and reads whose class the declarations do
   not fix (a dummy, a COMMON member declared with two classes): they
   stay boxed and yield the class of value the allocation holds, as the
   reference does *)
let unclassified =
  [ ( "INTEGER actuals to REAL dummies",
      "      PROGRAM T\n      INTEGER K, IA(3)\n      K = 17\n      IA(2) = 14\n\
      \      CALL S(K, IA(2), K - 17)\n      END\n      SUBROUTINE S(X, Y, Z)\n\
      \      REAL X, Y, Z\n      PRINT *, X, Y, Z\n      Y = X\n\
      \      PRINT *, X, Y, Z + 2.5\n      END\n",
      [ "17 14 0"; "17 17 2.5" ] );
    ( "REAL actual to an INTEGER dummy",
      "      PROGRAM T\n      REAL X\n      X = 2.75\n      CALL S(X)\n\
      \      PRINT *, X\n      END\n      SUBROUTINE S(K)\n      INTEGER K\n\
      \      PRINT *, K, K / 2, K + 1\n      K = K * 2\n      END\n",
      [ "2.75 1.375 3.75"; "5.5" ] );
    ( "COMMON member INTEGER here, REAL there",
      "      PROGRAM T\n      INTEGER N\n      COMMON /B/ N\n      N = 7\n\
      \      CALL S\n      PRINT *, N\n      END\n      SUBROUTINE S\n      REAL N\n\
      \      COMMON /B/ N\n      PRINT *, N / 2\n      N = N + 0.5\n      END\n",
      [ "3"; "7" ] );
    ( "CHARACTER literal and mixed-class MAX/MIN",
      "      PROGRAM T\n      INTEGER K\n      REAL X\n      K = 3\n      X = 2.5\n\
      \      PRINT *, 'MAX', MAX(K, X), MAX(X, K), MIN(K, X)\n      END\n",
      [ "MAX 3 3 2.5" ] ) ]

let test_unclassified () =
  List.iter
    (fun (label, src, expected) ->
      let p = Frontend.Parser.parse_string src in
      check_same label (cfg false) p;
      Alcotest.(check (list string)) (label ^ ": output") expected
        (Machine.Interp.run p).output)
    unclassified

(* REAL functions on both sides of an operator, nested, in an IF
   condition and calling each other, each with REAL locals of its own,
   and a subroutine whose REAL PARAMETERs are expressions, bound on
   first use while an expression of its frame is half evaluated: every
   activation writes only its own registers *)
let registers_src =
  "      PROGRAM REGS\n\
   \      REAL A(10), B(10), Y, S\n\
   \      INTEGER I\n\
   \      DO 10 I = 1, 10\n\
   \        A(I) = I * 0.5\n\
   \        B(I) = 1.0 / I\n\
   \   10 CONTINUE\n\
   \      S = 0.0\n\
   \      DO 20 I = 1, 9\n\
   \        Y = A(I) * F(B(I)) - A(I + 1) / F(F(A(I)) + 1.0)\n\
   \        IF (F(Y) .GT. S) S = S + F(Y) * 0.5\n\
   \        S = S + Y * (A(I) - B(I))\n\
   \   20 CONTINUE\n\
   \      CALL SCALE(A, 10)\n\
   \      PRINT *, S, A(1), A(10)\n\
   \      END\n\
   \      REAL FUNCTION F(X)\n\
   \      REAL X, T\n\
   \      T = 1.5 * 0.5 - 0.25\n\
   \      F = G(X) * T + X\n\
   \      END\n\
   \      REAL FUNCTION G(X)\n\
   \      REAL X, U\n\
   \      U = 2.0 ** 3 / 4.0\n\
   \      G = X * X - U\n\
   \      END\n\
   \      SUBROUTINE SCALE(V, N)\n\
   \      INTEGER N, K\n\
   \      REAL V(N), H, W\n\
   \      PARAMETER (H = 0.25 * 3.0, W = H * 2.0 + 1.0)\n\
   \      DO 30 K = 1, N\n\
   \        V(K) = V(K) * W + H\n\
   \   30 CONTINUE\n\
   \      END\n"

let test_registers () =
  let original = Frontend.Parser.parse_string registers_src in
  let compiled = compile registers_src in
  List.iter
    (fun parallel ->
      let mode = if parallel then "parallel" else "serial" in
      check_same ("registers original " ^ mode) (cfg parallel) original;
      check_same ("registers compiled " ^ mode) (cfg parallel) compiled)
    [ false; true ]

(* A float a closure returned boxed cost two minor words, and the
   compiled suite ran at 9.5 words per statement that way; with REAL
   values in frame registers it runs under one *)
let test_allocation () =
  let words, steps =
    List.fold_left
      (fun (words, steps) (c : Suite.Code.t) ->
        let p = compile c.source in
        let w0 = Gc.minor_words () in
        let st, _ = Machine.Interp.run_main p in
        (words +. (Gc.minor_words () -. w0), steps + st.steps))
      (0.0, 0) Suite.Registry.all
  in
  let per = words /. float_of_int steps in
  if per >= 1.0 then
    Alcotest.failf "serial suite run: %.2f minor words per statement (limit 1.0)" per

(* A DO execution that allocated its index setter and its iteration as
   closures cost 18 minor words: 6.01 per statement in SHORTDO, whose
   inner loop runs two trips, and 0.40 over the compiled suite.  A DO
   WHILE execution that allocated its iteration as a closure read 1.35
   per statement in SHORTWHILE, 0.012 without.  Each probe is lowered
   first, so only execution is counted *)
let shortdo_src =
  "      PROGRAM SHORTDO\n\
   \      INTEGER I, J\n\
   \      REAL A(2)\n\
   \      A(1) = 0.0\n\
   \      A(2) = 0.0\n\
   \      DO I = 1, 10000\n\
   \        DO J = 1, 2\n\
   \          A(J) = A(J) + 1.0\n\
   \        END DO\n\
   \      END DO\n\
   \      PRINT *, A(1), A(2)\n\
   \      END\n"

(* SHORTDO's shape with a 2-trip DO WHILE as the inner loop *)
let shortwhile_src =
  "      PROGRAM SHORTWH\n\
   \      INTEGER I, J\n\
   \      REAL A(2)\n\
   \      A(1) = 0.0\n\
   \      A(2) = 0.0\n\
   \      DO I = 1, 10000\n\
   \        J = 0\n\
   \        DO WHILE (J .LT. 2)\n\
   \          J = J + 1\n\
   \          A(J) = A(J) + 1.0\n\
   \        END DO\n\
   \      END DO\n\
   \      PRINT *, A(1), A(2)\n\
   \      END\n"

(* minor words and statements of a serial run of [p], lowering left out *)
let execution_words p =
  let st = Machine.Interp.fresh_state p in
  let fr = Machine.Interp.main_frame st in
  let w0 = Gc.minor_words () in
  Machine.Interp.run_unit_body st fr;
  (Gc.minor_words () -. w0, st.steps)

let test_do_allocation () =
  let check label (words, steps) =
    let per = words /. float_of_int steps in
    if per >= 0.1 then
      Alcotest.failf "%s: %.3f minor words per statement (limit 0.1)" label per
  in
  check "SHORTDO" (execution_words (Frontend.Parser.parse_string shortdo_src));
  check "SHORTWHILE"
    (execution_words (Frontend.Parser.parse_string shortwhile_src));
  check "compiled suite"
    (List.fold_left
       (fun (words, steps) (c : Suite.Code.t) ->
         let w, s = execution_words (compile c.source) in
         (words +. w, steps + s))
       (0.0, 0) Suite.Registry.all)

(* ------------------------------------------------------------------ *)
(* Simulated times pinned                                              *)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_simtime_golden () =
  let golden =
    List.filter_map
      (fun l ->
        if String.length l = 0 || l.[0] = '#' then None
        else Scanf.sscanf l "%s %d %d %d %d" (fun n a b c d -> Some (n, (a, b, c, d))))
      (read_lines "golden/simtime.txt")
  in
  Alcotest.(check int) "one line per suite code" (List.length Suite.Registry.all)
    (List.length golden);
  List.iter
    (fun (c : Suite.Code.t) ->
      let run parallel p =
        let cfg = Machine.Interp.default_config ~parallel ~procs:8 () in
        let st, _ = Machine.Interp.run_main ~cfg p in
        (st.time, st.steps)
      in
      let ts, ss = run false (Frontend.Parser.parse_string c.source) in
      let tp, sp =
        run true
          (Core.Pipeline.compile (Core.Config.polaris ~procs:8 ()) c.source).program
      in
      Alcotest.(check (list int)) (c.name ^ ": serial/parallel time and steps")
        (let a, b, c', d = List.assoc c.name golden in [ a; b; c'; d ])
        [ ts; tp; ss; sp ])
    Suite.Registry.all

let tests =
  [ ("suite codes: lowered = reference", `Quick, test_suite_codes);
    ("LRPD probes: lowered = reference", `Quick, test_lrpd_probes);
    ("100 fuzz seeds on seeded stores", `Quick, test_fuzz_seeded);
    ("fuel exhaustion messages", `Quick, test_fuel_messages);
    ("fault classes", `Quick, test_fault_classes);
    ("unclassified reads stay boxed", `Quick, test_unclassified);
    ("REAL functions and cold PARAMETERs: registers", `Quick, test_registers);
    ("suite runs under 1 minor word per statement", `Quick, test_allocation);
    ("DO loops allocate nothing per execution", `Quick, test_do_allocation);
    ("simulated times pinned (golden)", `Quick, test_simtime_golden) ]
