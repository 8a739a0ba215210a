(* Tests for the machine substrate: values, storage, cache, interpreter,
   multiprocessor timing model. *)

let parse = Frontend.Parser.parse_string

let run_src ?cfg src = Machine.Interp.run ?cfg (parse src)

let out1 ?cfg src =
  match (run_src ?cfg src).output with
  | [ line ] -> line
  | other -> Alcotest.fail ("expected one output line, got " ^ String.concat "|" other)

(* ----- values ----- *)

let test_value_arith () =
  let open Machine.Value in
  Alcotest.(check bool) "int div truncates" true (div (Int 7) (Int 2) = Int 3);
  Alcotest.(check bool) "int div negative" true (div (Int (-7)) (Int 2) = Int (-3));
  Alcotest.(check bool) "mixed promotes" true (add (Int 1) (Real 0.5) = Real 1.5);
  Alcotest.(check bool) "int pow" true (pow (Int 2) (Int 10) = Int 1024);
  Alcotest.(check bool) "compare" true (lt (Int 2) (Real 2.5))

(* ----- storage ----- *)

let test_storage_column_major () =
  (* A(4,3): A(i,j) at (i-1) + (j-1)*4 *)
  let dims = [ (1, 4); (1, 3) ] in
  Alcotest.(check int) "A(1,1)" 0 (Machine.Storage.linear_index dims [ 1; 1 ]);
  Alcotest.(check int) "A(2,1)" 1 (Machine.Storage.linear_index dims [ 2; 1 ]);
  Alcotest.(check int) "A(1,2)" 4 (Machine.Storage.linear_index dims [ 1; 2 ]);
  Alcotest.(check int) "A(4,3)" 11 (Machine.Storage.linear_index dims [ 4; 3 ])

let test_storage_lower_bounds () =
  let dims = [ (0, 5) ] in
  Alcotest.(check int) "A(0)" 0 (Machine.Storage.linear_index dims [ 0 ]);
  Alcotest.(check int) "A(4)" 4 (Machine.Storage.linear_index dims [ 4 ])

let test_storage_bounds_fault () =
  let b = Machine.Storage.array_binding Fir.Ast.Real [ (1, 3) ] in
  Alcotest.(check bool) "oob write faults" true
    (match Machine.Storage.write_elem b.view 5 (Machine.Value.Real 1.0) with
    | () -> false
    | exception Machine.Storage.Fault _ -> true)

let test_storage_snapshot () =
  let b = Machine.Storage.array_binding Fir.Ast.Integer [ (1, 3) ] in
  Machine.Storage.write_elem b.view 0 (Machine.Value.Int 7);
  let snap = Machine.Storage.snapshot b.view.alloc in
  Machine.Storage.write_elem b.view 0 (Machine.Value.Int 9);
  Machine.Storage.restore b.view.alloc snap;
  Alcotest.(check bool) "restored" true
    (Machine.Storage.read_elem b.view 0 = Machine.Value.Int 7)

(* ----- cache ----- *)

let test_cache () =
  let c = Machine.Interp.Cache.create () in
  Alcotest.(check bool) "first miss" false (Machine.Interp.Cache.access c 0);
  Alcotest.(check bool) "same line hit" true (Machine.Interp.Cache.access c 7);
  Alcotest.(check bool) "next line miss" false (Machine.Interp.Cache.access c 8);
  (* conflicting line evicts: 1024 sets * 8 words = line 0 and line 1024
     share set 0 *)
  ignore (Machine.Interp.Cache.access c (1024 * 8));
  Alcotest.(check bool) "evicted" false (Machine.Interp.Cache.access c 0)

(* ----- interpreter semantics ----- *)

let test_interp_arith_and_intrinsics () =
  let src =
    "      PROGRAM T\n\
     \      I = 7 / 2\n\
     \      J = MOD(17, 5)\n\
     \      X = SQRT(9.0)\n\
     \      K = MAX(3, 9, 4)\n\
     \      L = ABS(-6)\n\
     \      PRINT *, I, J, X, K, L\n\
     \      END\n"
  in
  Alcotest.(check string) "arith" "3 2 3 9 6" (out1 src)

let test_interp_do_semantics () =
  let src =
    "      PROGRAM T\n\
     \      S = 0\n\
     \      DO I = 1, 10, 3\n\
     \        S = S + I\n\
     \      END DO\n\
     \      DO J = 5, 1\n\
     \        S = S + 100\n\
     \      END DO\n\
     \      PRINT *, S, I, J\n\
     \      END\n"
  in
  (* iterations 1,4,7,10 -> 22; zero-trip loop leaves J = 5; I ends at 13 *)
  Alcotest.(check string) "do semantics" "22 13 5" (out1 src)

let test_interp_goto_loop () =
  let src =
    "      PROGRAM T\n\
     \      K = 0\n\
     \ 10   CONTINUE\n\
     \      K = K + 1\n\
     \      IF (K .LT. 5) GOTO 10\n\
     \      PRINT *, K\n\
     \      END\n"
  in
  Alcotest.(check string) "goto loop" "5" (out1 src)

let test_interp_call_by_reference () =
  let src =
    "      PROGRAM T\n\
     \      INTEGER K\n\
     \      REAL A(5)\n\
     \      K = 3\n\
     \      A(2) = 1.0\n\
     \      CALL BUMP(K, A)\n\
     \      PRINT *, K, A(2)\n\
     \      END\n\
     \      SUBROUTINE BUMP(N, B)\n\
     \      INTEGER N\n\
     \      REAL B(5)\n\
     \      N = N + 10\n\
     \      B(2) = B(2) + 0.5\n\
     \      END\n"
  in
  Alcotest.(check string) "by reference" "13 1.5" (out1 src)

let test_interp_array_section_passing () =
  let src =
    "      PROGRAM T\n\
     \      REAL A(10)\n\
     \      DO I = 1, 10\n\
     \        A(I) = I * 1.0\n\
     \      END DO\n\
     \      CALL DBL(A(4), 3)\n\
     \      PRINT *, A(3), A(4), A(6), A(7)\n\
     \      END\n\
     \      SUBROUTINE DBL(B, N)\n\
     \      INTEGER N\n\
     \      REAL B(N)\n\
     \      DO I = 1, N\n\
     \        B(I) = B(I) * 2.0\n\
     \      END DO\n\
     \      END\n"
  in
  Alcotest.(check string) "offset view" "3 8 12 7" (out1 src)

let test_interp_adjustable_dims_any_order () =
  (* array formal precedes its dimension formals *)
  let src =
    "      PROGRAM T\n\
     \      REAL C(12)\n\
     \      DO I = 1, 12\n\
     \        C(I) = 0.0\n\
     \      END DO\n\
     \      CALL FILL(C, 4, 3)\n\
     \      S = 0.0\n\
     \      DO I = 1, 12\n\
     \        S = S + C(I)\n\
     \      END DO\n\
     \      PRINT *, S\n\
     \      END\n\
     \      SUBROUTINE FILL(D, M, K)\n\
     \      INTEGER M, K\n\
     \      REAL D(M, K)\n\
     \      DO J = 1, K\n\
     \        DO I = 1, M\n\
     \          D(I, J) = 1.0\n\
     \        END DO\n\
     \      END DO\n\
     \      END\n"
  in
  Alcotest.(check string) "all 12 filled" "12" (out1 src)

let test_interp_common_blocks () =
  let src =
    "      PROGRAM T\n\
     \      INTEGER N\n\
     \      COMMON /CFG/ N\n\
     \      N = 41\n\
     \      CALL STEP\n\
     \      PRINT *, N\n\
     \      END\n\
     \      SUBROUTINE STEP\n\
     \      INTEGER N\n\
     \      COMMON /CFG/ N\n\
     \      N = N + 1\n\
     \      END\n"
  in
  Alcotest.(check string) "common shared" "42" (out1 src)

let test_interp_function_call () =
  let src =
    "      PROGRAM T\n\
     \      K = TWICE(21)\n\
     \      PRINT *, K\n\
     \      END\n\
     \      INTEGER FUNCTION TWICE(N)\n\
     \      INTEGER N\n\
     \      TWICE = 2 * N\n\
     \      END\n"
  in
  Alcotest.(check string) "function" "42" (out1 src)

let test_interp_fuel () =
  let src =
    "      PROGRAM T\n\
     \      K = 0\n\
     \ 10   K = K + 1\n\
     \      GOTO 10\n\
     \      END\n"
  in
  let cfg = { (Machine.Interp.default_config ()) with max_steps = 10_000 } in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "fuel exhausted, message locates the abort" true
    (match run_src ~cfg src with
    | _ -> false
    | exception Machine.Interp.Fuel_exhausted m ->
      (* the message must locate the abort: statement count, unit, loop *)
      contains m "statements" && contains m "unit")

let test_interp_determinism () =
  let c = Suite.Registry.find "FLO52" in
  let r1 = run_src c.Suite.Code.source and r2 = run_src c.Suite.Code.source in
  Alcotest.(check bool) "same time" true (r1.time = r2.time);
  Alcotest.(check (list string)) "same output" r1.output r2.output

let test_parallel_timing_preserves_semantics () =
  let c = Suite.Registry.find "MDG" in
  let p = parse c.Suite.Code.source in
  let _ = Passes.Parallelize.run ~mode:Passes.Parallelize.Polaris p in
  let rs = Machine.Interp.run ~cfg:(Machine.Interp.default_config ~parallel:false ()) p in
  let rp = Machine.Interp.run ~cfg:(Machine.Interp.default_config ~parallel:true ()) p in
  Alcotest.(check (list string)) "same output" rs.output rp.output;
  Alcotest.(check bool) "parallel faster" true (rp.time < rs.time)

(* NaN compares like IEEE-754 / C: ordered comparisons and .EQ. are
   false, .NE. true, and MAX/MIN pick the second operand unless the
   first one compares >= / <= (so a NaN second operand wins) *)
let nan_src =
  "      PROGRAM NANCMP\n\
   \      REAL X, Y, Z, W, V\n\
   \      INTEGER A, B, C, D, E, F, G\n\
   \      X = 0.0\n\
   \      Y = X / X\n\
   \      A = 0\n\
   \      B = 0\n\
   \      C = 0\n\
   \      D = 0\n\
   \      E = 0\n\
   \      F = 0\n\
   \      G = 0\n\
   \      IF (Y .LT. 1.0) THEN\n\
   \        A = 1\n\
   \      END IF\n\
   \      IF (Y .EQ. Y) THEN\n\
   \        B = 1\n\
   \      END IF\n\
   \      IF (Y .GE. 1.0) THEN\n\
   \        C = 1\n\
   \      END IF\n\
   \      Z = MAX(1.0, Y)\n\
   \      W = MAX(Y, 1.0)\n\
   \      V = MIN(1.0, Y)\n\
   \      IF (Z .EQ. Z) THEN\n\
   \        D = 1\n\
   \      END IF\n\
   \      IF (W .EQ. W) THEN\n\
   \        E = 1\n\
   \      END IF\n\
   \      IF (Y .NE. Y) THEN\n\
   \        F = 1\n\
   \      END IF\n\
   \      IF (V .EQ. V) THEN\n\
   \        G = 1\n\
   \      END IF\n\
   \      PRINT *, A, B, C, D, E, F, G\n\
   \      END\n"

let nan_expected = "0 0 0 0 1 1 0"

let test_nan_comparisons () =
  Alcotest.(check string) "lowered executor" nan_expected (out1 nan_src);
  Alcotest.(check (list string)) "reference tree-walker" [ nan_expected ]
    (Machine.Treewalk.run_full (parse nan_src)).cap_result.output;
  let open Machine.Value in
  let nan = Real Float.nan in
  Alcotest.(check bool) "Rmax merge keeps a NaN partial" true
    (match Machine.Parexec.merge_value Fir.Ast.Rmax (Real 1.0) nan with
    | Real x -> Float.is_nan x
    | _ -> false)

(* the same program compiled by the C backend and run natively; skipped
   when the host has no C compiler *)
let test_nan_comparisons_native () =
  if Sys.command "command -v cc >/dev/null 2>&1" <> 0 then ()
  else begin
    let dir = Filename.temp_dir "polaris-nan" "" in
    Fun.protect
      ~finally:(fun () ->
        ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
      (fun () ->
        let file = Filename.concat dir in
        let oc = open_out (file "nan.c") in
        output_string oc (Backend.Cgen.emit (parse nan_src));
        close_out oc;
        let status =
          Sys.command
            (Printf.sprintf "cd %s && cc -O1 -o nan.exe nan.c -lm 2>/dev/null && ./nan.exe > out.txt"
               (Filename.quote dir))
        in
        Alcotest.(check int) "compiles and runs" 0 status;
        let ic = open_in (file "out.txt") in
        let line = String.trim (input_line ic) in
        close_in ic;
        Alcotest.(check string) "native output = interpreter" nan_expected line)
  end

(* ----- parsim ----- *)

let test_block_schedule () =
  let cfg = Machine.Parsim.default ~procs:4 () in
  (* 8 equal iterations on 4 procs: 2 each *)
  Alcotest.(check int) "balanced" 20
    (Machine.Parsim.block_schedule_time cfg (Array.make 8 10));
  (* one heavy iteration dominates *)
  let costs = [| 100; 1; 1; 1; 1; 1; 1; 1 |] in
  Alcotest.(check int) "imbalanced" 101
    (Machine.Parsim.block_schedule_time cfg costs);
  Alcotest.(check int) "empty" 0 (Machine.Parsim.block_schedule_time cfg [||])

(* the block-schedule geometry is shared between the timing model and
   the real executor: pin the boundaries exactly, check block_start /
   proc_of agree with the textbook formula on small sizes, and check
   the division-first form survives near-max_int trip counts (the old
   [k * p] product overflowed there) *)
let test_block_boundaries () =
  let starts ~p ~n =
    List.init (p + 1) (fun j -> Machine.Parsim.block_start ~p ~n j)
  in
  Alcotest.(check (list int)) "n=10 p=4" [ 0; 3; 5; 8; 10 ] (starts ~p:4 ~n:10);
  Alcotest.(check (list int)) "n=8 p=4" [ 0; 2; 4; 6; 8 ] (starts ~p:4 ~n:8);
  Alcotest.(check (list int)) "n=2 p=8"
    [ 0; 1; 1; 1; 1; 2; 2; 2; 2 ] (starts ~p:8 ~n:2);
  Alcotest.(check (list int)) "n=7 p=3" [ 0; 3; 5; 7 ] (starts ~p:3 ~n:7);
  (* proc_of is the inverse of block_start and matches k*p/n exactly *)
  List.iter
    (fun (p, n) ->
      for k = 0 to n - 1 do
        let expect = min (p - 1) (k * p / n) in
        Alcotest.(check int)
          (Printf.sprintf "proc_of p=%d n=%d k=%d" p n k)
          expect
          (Machine.Parsim.proc_of ~p ~n k)
      done)
    [ (1, 5); (2, 5); (3, 7); (4, 10); (8, 2); (8, 64); (5, 100) ];
  (* overflow guard: trip counts where k * p would wrap *)
  let n = max_int / 2 and p = 8 in
  Alcotest.(check int) "huge n: first boundary" 0
    (Machine.Parsim.block_start ~p ~n 0);
  Alcotest.(check int) "huge n: last boundary" n
    (Machine.Parsim.block_start ~p ~n p);
  let rec mono j =
    j >= p
    || Machine.Parsim.block_start ~p ~n j <= Machine.Parsim.block_start ~p ~n (j + 1)
       && mono (j + 1)
  in
  Alcotest.(check bool) "huge n: boundaries monotone" true (mono 0);
  Alcotest.(check int) "huge n: last iteration on last proc" (p - 1)
    (Machine.Parsim.proc_of ~p ~n (n - 1));
  Alcotest.(check int) "huge n: first iteration on proc 0" 0
    (Machine.Parsim.proc_of ~p ~n 0)

let test_doall_time_overheads () =
  let cfg = Machine.Parsim.default ~procs:8 () in
  let t0 =
    Machine.Parsim.doall_time cfg ~iter_costs:(Array.make 8 100) ~n_private:0
      ~reduction_elems:0
  in
  let t1 =
    Machine.Parsim.doall_time cfg ~iter_costs:(Array.make 8 100) ~n_private:2
      ~reduction_elems:50
  in
  Alcotest.(check bool) "overheads monotone" true (t1 > t0);
  Alcotest.(check bool) "fork dominates empty loop" true
    (Machine.Parsim.doall_time cfg ~iter_costs:[||] ~n_private:0 ~reduction_elems:0
    >= cfg.fork_cost)

let test_speedup_more_procs () =
  (* simulated parallel time should not increase with more processors
     for a big balanced loop *)
  let c = Suite.Registry.find "SWIM" in
  let p = parse c.Suite.Code.source in
  let _ = Passes.Parallelize.run ~mode:Passes.Parallelize.Polaris p in
  let t procs =
    (Machine.Interp.run ~cfg:(Machine.Interp.default_config ~parallel:true ~procs ()) p).time
  in
  let t2 = t 2 and t8 = t 8 in
  Alcotest.(check bool) "8 procs faster than 2" true (t8 < t2)

let tests =
  [ ("value arithmetic", `Quick, test_value_arith);
    ("storage column major", `Quick, test_storage_column_major);
    ("storage lower bounds", `Quick, test_storage_lower_bounds);
    ("storage bounds fault", `Quick, test_storage_bounds_fault);
    ("storage snapshot/restore", `Quick, test_storage_snapshot);
    ("cache direct mapped", `Quick, test_cache);
    ("interp arithmetic+intrinsics", `Quick, test_interp_arith_and_intrinsics);
    ("interp DO semantics", `Quick, test_interp_do_semantics);
    ("interp goto loop", `Quick, test_interp_goto_loop);
    ("interp call by reference", `Quick, test_interp_call_by_reference);
    ("interp array section passing", `Quick, test_interp_array_section_passing);
    ("interp adjustable dims order", `Quick, test_interp_adjustable_dims_any_order);
    ("interp common blocks", `Quick, test_interp_common_blocks);
    ("interp function call", `Quick, test_interp_function_call);
    ("interp fuel", `Quick, test_interp_fuel);
    ("interp deterministic", `Quick, test_interp_determinism);
    ("parallel timing preserves semantics", `Quick, test_parallel_timing_preserves_semantics);
    ("IEEE NaN comparisons", `Quick, test_nan_comparisons);
    ("IEEE NaN comparisons, native C lane", `Quick, test_nan_comparisons_native);
    ("parsim block schedule", `Quick, test_block_schedule);
    ("parsim block boundaries pinned", `Quick, test_block_boundaries);
    ("parsim doall overheads", `Quick, test_doall_time_overheads);
    ("parsim more procs faster", `Quick, test_speedup_more_procs) ]
