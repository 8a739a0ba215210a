(* End-to-end fuzzing: random structured Fortran programs through the
   full pipelines, with the interpreter as the semantic oracle.

   The generator builds programs from loops (constant bounds), IFs,
   scalar assignments (some mixing INTEGER and REAL, so the store's
   conversion matters), array writes and reduction-shaped updates, with
   subscripts constructed to stay within bounds.  Each program is
   unparsed to source (covering the unparser), compiled under each
   configuration, and executed serially and with parallel timing; the
   PRINT output and final array memory must match the original.  This is
   the whole-compiler analogue of the dependence-driver soundness
   property in test_dep.ml. *)

open Fir

(* ------------------------------------------------------------------ *)
(* Program generator (stateful, driven by the deterministic PRNG; the
   qcheck side only supplies a seed, so shrinking reduces seeds) *)

let gen_program (rand : Util.Prng.t) : string =
  let r = rand in
  let buf = Buffer.create 512 in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "      PROGRAM FUZZ";
  line "      INTEGER I1, I2, I3, K1, K2, P";
  line "      REAL A(300), B(300), S1, S2, T";
  (* deterministic initialization *)
  line "      DO I1 = 1, 300";
  line "        A(I1) = I1 * 0.5";
  line "        B(I1) = 301 - I1";
  line "      END DO";
  line "      S1 = 0.0";
  line "      S2 = 1.0";
  line "      K1 = 0";
  line "      P = 3";
  (* random subscript over the in-scope indices: values stay in
     [1, 300] by construction: 100 + sum of terms in [-8, 24] x 3 *)
  let subscript depth =
    let idx = List.filteri (fun i _ -> i < depth) [ "I1"; "I2"; "I3" ] in
    let terms = Util.Prng.range r 0 2 in
    let base = Buffer.create 16 in
    Buffer.add_string base "100";
    for _ = 0 to terms do
      let c = Util.Prng.range r (-2) 4 in
      let sign = if c < 0 then "-" else "+" in
      match (idx, Util.Prng.range r 0 2) with
      | [], _ | _, 0 ->
        Buffer.add_string base (Fmt.str " + %d" (abs c))
      | idx, _ ->
        Buffer.add_string base
          (Fmt.str " %s %d * %s" sign (abs c) (Util.Prng.pick r idx))
    done;
    Buffer.contents base
  in
  let scalar () = Util.Prng.pick r [ "S1"; "S2"; "T"; "K1"; "K2" ] in
  let arr () = Util.Prng.pick r [ "A"; "B" ] in
  let rec stmts depth indent n =
    let pad = String.make indent ' ' in
    for _ = 1 to n do
      match Util.Prng.range r 0 11 with
      | 0 | 1 ->
        (* array write *)
        line "%s%s(%s) = %s(%s) * 0.9 + %d.0" pad (arr ()) (subscript depth)
          (arr ()) (subscript depth) (Util.Prng.range r 0 5)
      | 2 ->
        (* scalar temp *)
        line "%sT = %s(%s) + %d.0" pad (arr ()) (subscript depth)
          (Util.Prng.range r 0 3)
      | 3 ->
        (* reduction-shaped update *)
        line "%sS1 = S1 + %s(%s) * 0.25" pad (arr ()) (subscript depth)
      | 4 when depth >= 1 ->
        (* induction-shaped update, only inside loops *)
        line "%sK1 = K1 + %d" pad (Util.Prng.range r 1 3)
      | 5 when depth < 3 ->
        (* nested loop *)
        let v = Printf.sprintf "I%d" (depth + 1) in
        line "%sDO %s = 1, %d" pad v (Util.Prng.range r 1 4);
        stmts (depth + 1) (indent + 2) (Util.Prng.range r 1 3);
        line "%sEND DO" pad
      | 6 ->
        (* conditional *)
        line "%sIF (%s .GT. %d.0) THEN" pad (scalar ()) (Util.Prng.range r 0 9);
        stmts depth (indent + 2) (Util.Prng.range r 1 2);
        line "%sEND IF" pad
      | 7 ->
        line "%sS2 = MAX(S2, %s(%s))" pad (arr ()) (subscript depth)
      | 8 when depth >= 1 && Util.Prng.range r 0 1 = 0 ->
        (* geometric recurrence *)
        line "%sS2 = S2 * 0.5" pad
      | 8 ->
        line "%sK2 = MOD(K1 + %d, 7)" pad (Util.Prng.range r 0 10)
      | 10 ->
        (* mixed classes: the INTEGER store truncates a REAL value... *)
        line "%sK2 = S1 * 0.5 + %d" pad (Util.Prng.range r 0 5)
      | 11 ->
        (* ...and the REAL store converts an INTEGER quotient *)
        line "%sT = K1 / %d" pad (Util.Prng.range r 1 4)
      | _ ->
        line "%s%s(%s) = S1 + S2 * 0.1" pad (arr ()) (subscript depth)
    done
  in
  (* top level: a few statements and loops *)
  stmts 0 6 (Util.Prng.range r 3 6);
  line "      PRINT *, S1, S2, K1, K2, A(100), B(150)";
  line "      END";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The oracle                                                          *)

(* PRINT output and main-frame arrays of a run *)
let run_program ?(parallel = false) (p : Program.t) =
  let cfg = Machine.Interp.default_config ~parallel () in
  let c = Machine.Interp.run_full ~cfg p in
  (c.cap_result, c.cap_arrays)

let check_one (seed : int) : bool =
  let src = gen_program (Util.Prng.create seed) in
  let original = Frontend.Parser.parse_string src in
  let reference, ref_mem = run_program original in
  List.for_all
    (fun cfg ->
      let t = Core.Pipeline.compile cfg src in
      (* the transformed program must also unparse and re-parse *)
      let reparsed =
        Frontend.Parser.parse_string (Core.Pipeline.output_source t)
      in
      let serial, serial_mem = run_program t.program in
      let par, par_mem = run_program ~parallel:true t.program in
      let rep, rep_mem = run_program reparsed in
      (* the lib/valid translation-validation oracle as a second judge:
         ULP-tolerant, multiple machine sizes, plus a seeded initial
         store (safe here: single unit, no CALLs, so seeding by name is
         stable across the transformation) *)
      let oracle =
        Valid.Oracle.differential ~procs_list:[ 2; 8 ]
          ~seeds:[ seed land 0xFFFF ] ~original ~transformed:t.program ()
      in
      reference.output = serial.output
      && ref_mem = serial_mem
      && reference.output = par.output
      && ref_mem = par_mem
      && reference.output = rep.output
      && ref_mem = rep_mem
      && Valid.Oracle.equivalent oracle)
    [ Core.Config.polaris (); Core.Config.baseline () ]

let prop_pipeline_preserves_semantics =
  QCheck2.Test.make ~name:"full pipeline preserves semantics (fuzz)" ~count:120
    QCheck2.Gen.(int_range 0 1_000_000)
    check_one

(* a fixed regression battery with known-interesting seeds, so failures
   reproduce outside qcheck too; seed 9 assigns [K2 = S1 * 0.5 + 1],
   which constant propagation must not substitute for the INTEGER K2 *)
let test_fixed_seeds () =
  List.iter
    (fun seed ->
      Alcotest.(check bool) (Printf.sprintf "seed %d" seed) true (check_one seed))
    [ 1; 7; 9; 42; 1996; 271828; 314159; 999983 ]

let tests =
  [ ("fixed fuzz seeds", `Quick, test_fixed_seeds) ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_pipeline_preserves_semantics ]
