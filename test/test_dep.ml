(* Tests for the dependence tests: GCD, Banerjee, SIV, the range test,
   and a brute-force soundness property for the whole driver. *)

open Fir
open Symbolic

let parse = Frontend.Parser.parse_string

(* run the parallelizer and return (index, parallel?) for each loop *)
let verdicts ~mode src =
  let p = parse src in
  ignore (Passes.Parallelize.run ~mode p);
  List.concat_map
    (fun (u : Punit.t) ->
      List.filter_map
        (fun (s : Ast.stmt) ->
          match s.kind with
          | Ast.Do d -> Some (d.index, d.info.par)
          | _ -> None)
        (Stmt.all_stmts u.pu_body))
    (Program.units p)

let check_verdicts name ~mode src expected =
  Alcotest.(check (list (pair string bool))) name expected (verdicts ~mode src)

(* ----- unit tests for the individual tests ----- *)

let aff coeffs const =
  List.fold_left
    (fun acc (v, c) -> Poly.add acc (Poly.scale (Util.Rat.of_int c) (Poly.var v)))
    (Poly.of_int const) coeffs

let test_gcd () =
  (* 2i vs 2i'+1: gcd 2 does not divide 1 -> independent *)
  Alcotest.(check bool) "2i vs 2i+1" true
    (Dep.Gcd_test.test ~indices:[ "I" ] [ aff [ ("I", 2) ] 0 ] [ aff [ ("I", 2) ] 1 ]
    = Dep.Gcd_test.Independent);
  Alcotest.(check bool) "i vs i+1 maybe" true
    (Dep.Gcd_test.test ~indices:[ "I" ] [ aff [ ("I", 1) ] 0 ] [ aff [ ("I", 1) ] 1 ]
    = Dep.Gcd_test.Maybe_dependent);
  (* constants: 3 vs 5 never equal *)
  Alcotest.(check bool) "const disjoint" true
    (Dep.Gcd_test.test ~indices:[] [ aff [] 3 ] [ aff [] 5 ] = Dep.Gcd_test.Independent)

let mk_loop name lo hi : Analysis.Loops.loop =
  let d : Ast.do_loop =
    { index = name; init = Ast.Int_lit lo; limit = Ast.Int_lit hi; step = None;
      body = []; info = Ast.fresh_loop_info () }
  in
  Analysis.Loops.describe (Stmt.mk (Ast.Do d)) d

let test_banerjee_directions () =
  let loops = [ mk_loop "I" 1 10 ] in
  (* A(I) vs A(I): carried only with distance 0 -> no <-direction dep *)
  Alcotest.(check bool) "A(I) self not carried" true
    (Dep.Banerjee.carries ~loops ~k:0 [ aff [ ("I", 1) ] 0 ] [ aff [ ("I", 1) ] 0 ]
    = Dep.Banerjee.Independent);
  (* A(I) vs A(I-1): distance 1 -> carried *)
  Alcotest.(check bool) "A(I) vs A(I-1) carried" true
    (Dep.Banerjee.carries ~loops ~k:0 [ aff [ ("I", 1) ] 0 ] [ aff [ ("I", 1) ] (-1) ]
    = Dep.Banerjee.Maybe_dependent);
  (* A(I) vs A(I+20): distance beyond loop bounds -> independent *)
  Alcotest.(check bool) "distance out of bounds" true
    (Dep.Banerjee.carries ~loops ~k:0 [ aff [ ("I", 1) ] 0 ] [ aff [ ("I", 1) ] 20 ]
    = Dep.Banerjee.Independent)

let test_siv () =
  (* same coefficient, symbolic bounds: distance reasoning *)
  Alcotest.(check bool) "A(2I) vs A(2I+1)" true
    (Dep.Siv.test ~enclosing:[] ~index:"I" ~inner:[]
       [ aff [ ("I", 2) ] 0 ] [ aff [ ("I", 2) ] 1 ]
    = Dep.Siv.Independent);
  Alcotest.(check bool) "A(I) self" true
    (Dep.Siv.test ~enclosing:[] ~index:"I" ~inner:[]
       [ aff [ ("I", 1) ] 0 ] [ aff [ ("I", 1) ] 0 ]
    = Dep.Siv.Independent);
  Alcotest.(check bool) "A(I) vs A(I+1) dependent" true
    (Dep.Siv.test ~enclosing:[] ~index:"I" ~inner:[]
       [ aff [ ("I", 1) ] 0 ] [ aff [ ("I", 1) ] 1 ]
    = Dep.Siv.Maybe_dependent);
  (* inner index present: no verdict *)
  Alcotest.(check bool) "inner index blocks SIV" true
    (Dep.Siv.test ~enclosing:[] ~index:"I" ~inner:[ "J" ]
       [ aff [ ("J", 1) ] 0 ] [ aff [ ("J", 1) ] 0 ]
    = Dep.Siv.Maybe_dependent)

let test_range_test_pair () =
  (* A(2i) vs A(2i+1) with symbolic n: globally interleaved, adjacent
     disjointness proves independence of the i loop *)
  let env =
    Range.refine Range.empty (Atom.var "I")
      (Range.between Poly.one (Poly.var "N"))
  in
  let f = [ aff [ ("I", 2) ] 0 ] and g = [ aff [ ("I", 2) ] 1 ] in
  Alcotest.(check bool) "2i vs 2i+1 disjoint" true
    (Dep.Range_test.test_pair env ~index:"I" ~inner:[] f g = Dep.Range_test.Disjoint);
  let h = [ aff [ ("I", 1) ] 1 ] in
  Alcotest.(check bool) "i vs i+1 overlap" true
    (Dep.Range_test.test_pair env ~index:"I" ~inner:[] [ aff [ ("I", 1) ] 0 ] h
    = Dep.Range_test.Overlap_possible)

(* ----- end-to-end verdicts on characteristic nests ----- *)

let test_polaris_nonlinear_stride () =
  (* the paper's motivating shape: stride n*i with symbolic n *)
  let src =
    "      PROGRAM T\n\
     \      INTEGER N, M, I, J\n\
     \      REAL A(10000)\n\
     \      N = 17\n\
     \      M = 9\n\
     \      CALL K(A, N, M)\n\
     \      END\n\
     \      SUBROUTINE K(A, N, M)\n\
     \      INTEGER N, M, I, J\n\
     \      REAL A(10000)\n\
     \      DO I = 0, M - 1\n\
     \        DO J = 1, N\n\
     \          A(N * I + J) = I * 1.0 + J\n\
     \        END DO\n\
     \      END DO\n\
     \      END\n"
  in
  (* in the subroutine, N is symbolic: baseline fails, range test works *)
  let vs = verdicts ~mode:Passes.Parallelize.Polaris src in
  Alcotest.(check bool) "polaris I parallel" true (List.assoc "I" vs);
  Alcotest.(check bool) "polaris J parallel" true (List.assoc "J" vs);
  let vb = verdicts ~mode:Passes.Parallelize.Baseline src in
  Alcotest.(check bool) "baseline I serial" false (List.assoc "I" vb);
  Alcotest.(check bool) "baseline J serial" false (List.assoc "J" vb)

let test_true_dependence_rejected () =
  (* both pipelines must keep a genuine recurrence serial *)
  let src =
    "      PROGRAM T\n\
     \      REAL A(100)\n\
     \      DO I = 2, 99\n\
     \        A(I) = A(I - 1) + 1.0\n\
     \      END DO\n\
     \      END\n"
  in
  check_verdicts "recurrence serial (polaris)" ~mode:Passes.Parallelize.Polaris src
    [ ("I", false) ];
  check_verdicts "recurrence serial (baseline)" ~mode:Passes.Parallelize.Baseline src
    [ ("I", false) ]

let test_anti_dependence_rejected () =
  let src =
    "      PROGRAM T\n\
     \      REAL A(100)\n\
     \      DO I = 1, 98\n\
     \        A(I) = A(I + 1) * 0.5\n\
     \      END DO\n\
     \      END\n"
  in
  check_verdicts "anti dep serial" ~mode:Passes.Parallelize.Polaris src
    [ ("I", false) ]

let test_ocean_permutation_needed () =
  (* Fig. 3: testing K directly fails; promoting J succeeds *)
  let src =
    "      PROGRAM T\n\
     \      INTEGER X, K, J, I\n\
     \      INTEGER Z(0:15)\n\
     \      REAL A(100000)\n\
     \      DO K = 0, X - 1\n\
     \        DO J = 0, Z(K)\n\
     \          DO I = 0, 128\n\
     \            A(258*X*J + 129*K + I + 1) = 0.5\n\
     \            A(258*X*J + 129*K + I + 1 + 129*X) = 1.0\n\
     \          END DO\n\
     \        END DO\n\
     \      END DO\n\
     \      END\n"
  in
  let p = parse src in
  ignore (Passes.Parallelize.run ~mode:Passes.Parallelize.Polaris p);
  let u = Program.main p in
  Stmt.iter
    (fun (s : Ast.stmt) ->
      match s.kind with
      | Ast.Do d when d.index = "K" && d.info.par ->
        Alcotest.(check bool) "K proof mentions promotion" true
          (let r = d.info.par_reason in
           let has sub =
             let n = String.length sub and h = String.length r in
             let rec go i = i + n <= h && (String.sub r i n = sub || go (i + 1)) in
             go 0
           in
           has "promoted")
      | _ -> ())
    u.pu_body

(* ----- brute-force soundness property ----- *)

(* Random structured loop nests; every loop the driver marks parallel is
   checked exhaustively: no two different iterations of that loop (with
   equal outer indices) may touch the same element when one access is a
   write.  Reduction-annotated loops are skipped (their flagged
   statements are exempt by construction). *)

let rec eval_expr env (e : Ast.expr) : int =
  match e with
  | Ast.Int_lit n -> n
  | Ast.Var v -> ( match List.assoc_opt v env with Some n -> n | None -> 1)
  | Ast.Unary (Ast.Neg, a) -> -eval_expr env a
  | Ast.Binary (Ast.Add, a, b) -> eval_expr env a + eval_expr env b
  | Ast.Binary (Ast.Sub, a, b) -> eval_expr env a - eval_expr env b
  | Ast.Binary (Ast.Mul, a, b) -> eval_expr env a * eval_expr env b
  | Ast.Binary (Ast.Div, a, b) -> eval_expr env a / eval_expr env b
  | _ -> 0

type gen_access = { garr : string; gwrite : bool; gsub : Ast.expr }

(* build a random nest: depth 1-3 loops, 2-4 accesses *)
let nest_gen =
  let open QCheck2.Gen in
  let sub_gen depth =
    (* affine in up to [depth] indices with small coefficients, plus an
       occasional nonlinear product of two indices *)
    let idx = List.filteri (fun i _ -> i < depth) [ "I1"; "I2"; "I3" ] in
    let term =
      oneof
        [ map2
            (fun v c -> Ast.Binary (Ast.Mul, Ast.Int_lit c, Ast.Var v))
            (oneofl idx) (int_range (-2) 3);
          map (fun c -> Ast.Int_lit c) (int_range 0 6);
          (if depth >= 2 then
             return
               (Ast.Binary (Ast.Mul, Ast.Var "I1", Ast.Var "I2"))
           else map (fun c -> Ast.Int_lit c) (int_range 0 3)) ]
    in
    map
      (fun ts ->
        List.fold_left (fun acc t -> Ast.Binary (Ast.Add, acc, t)) (Ast.Int_lit 40) ts)
      (list_size (int_range 1 3) term)
  in
  let* depth = int_range 1 3 in
  let* bounds = list_repeat depth (int_range 1 4) in
  let* accs =
    list_size (int_range 2 4)
      (let* garr = oneofl [ "A"; "B" ] in
       let* gwrite = bool in
       let* gsub = sub_gen depth in
       return { garr; gwrite; gsub })
  in
  (* ensure at least one write *)
  let accs =
    match accs with
    | a :: rest -> { a with gwrite = true } :: rest
    | [] -> assert false
  in
  return (depth, bounds, accs)

let build_nest (depth, bounds, accs) : Punit.t =
  let u = Punit.create "T" in
  Symtab.define u.pu_symtab
    (Symtab.mk_symbol ~typ:Ast.Real ~dims:[ (Fir.Expr.int (-200), Fir.Expr.int 400) ] "A");
  Symtab.define u.pu_symtab
    (Symtab.mk_symbol ~typ:Ast.Real ~dims:[ (Fir.Expr.int (-200), Fir.Expr.int 400) ] "B");
  let stmts =
    List.map
      (fun g ->
        if g.gwrite then Stmt.assign (Ast.Ref (g.garr, [ g.gsub ])) (Fir.Expr.int 0)
        else Stmt.assign (Ast.Var "S") (Ast.Ref (g.garr, [ g.gsub ])))
      accs
  in
  let rec wrap k body =
    if k > depth then body
    else
      wrap (k + 1)
        [ Stmt.do_
            (Printf.sprintf "I%d" k)
            ~init:(Fir.Expr.int 1)
            ~limit:(Fir.Expr.int (List.nth bounds (k - 1)))
            body ]
  in
  (* innermost gets the statements: build from inside out *)
  let rec build k =
    if k > depth then stmts
    else
      [ Stmt.do_
          (Printf.sprintf "I%d" k)
          ~init:(Fir.Expr.int 1)
          ~limit:(Fir.Expr.int (List.nth bounds (k - 1)))
          (build (k + 1)) ]
  in
  ignore wrap;
  u.pu_body <- build 1;
  u

(* exhaustively: does loop [k] (1-based) carry a conflict that the
   marked parallelization (with [privates] privatized) cannot have?
   For privatized arrays output dependences are removed and reads are
   served by the loop-[k] iteration's own earlier write, so the check
   becomes: every read of a privatized array must be preceded — within
   the same iteration of loop [k] — by a write of the same element. *)
let brute_force_carries ?(privates = []) (depth, bounds, accs) k =
  let rec iterate idx env acc =
    if idx > depth then List.rev env :: acc
    else
      List.concat_map
        (fun v -> iterate (idx + 1) ((Printf.sprintf "I%d" idx, v) :: env) acc)
        (List.init (List.nth bounds (idx - 1)) (fun i -> i + 1))
  in
  let tuples = iterate 1 [] [] in
  let conflicts = ref false in
  List.iter
    (fun t1 ->
      List.iter
        (fun t2 ->
          let outer_eq =
            List.for_all
              (fun j ->
                j >= k
                || List.assoc (Printf.sprintf "I%d" j) t1
                   = List.assoc (Printf.sprintf "I%d" j) t2)
              (List.init depth (fun i -> i + 1))
          in
          let k_name = Printf.sprintf "I%d" k in
          if outer_eq && List.assoc k_name t1 <> List.assoc k_name t2 then
            List.iter
              (fun a1 ->
                List.iter
                  (fun a2 ->
                    if
                      (a1.gwrite || a2.gwrite)
                      && String.equal a1.garr a2.garr
                      && eval_expr t1 a1.gsub = eval_expr t2 a2.gsub
                      && not (List.mem a1.garr privates)
                    then conflicts := true)
                  accs)
              accs)
        tuples)
    tuples;
  (* privatized arrays: reads must be covered within the same iteration
     of loop [k] — the private copy's scope.  A covering write may come
     from an earlier statement of the same innermost tuple, or from any
     strictly earlier inner-loop tuple with the same I1..Ik (inner loops
     run serially within one iteration of the parallelized loop). *)
  let indices = List.init depth (fun i -> Printf.sprintf "I%d" (i + 1)) in
  let prefix_eq t1 t2 =
    List.for_all
      (fun j ->
        let n = Printf.sprintf "I%d" j in
        List.assoc n t1 = List.assoc n t2)
      (List.init k (fun i -> i + 1))
  in
  let inner_lt t1 t2 =
    (* lexicographic < on the indices inside loop k *)
    let rec go = function
      | [] -> false
      | n :: rest ->
        let a = List.assoc n t1 and b = List.assoc n t2 in
        if a < b then true else if a > b then false else go rest
    in
    go (Util.Listx.drop k indices)
  in
  let covered_earlier t arr e =
    List.exists
      (fun t' ->
        prefix_eq t' t && inner_lt t' t
        && List.exists
             (fun a ->
               a.gwrite && String.equal a.garr arr && eval_expr t' a.gsub = e)
             accs)
      tuples
  in
  List.iter
    (fun t ->
      let written = Hashtbl.create 8 in
      List.iter
        (fun a ->
          if List.mem a.garr privates then
            let e = eval_expr t a.gsub in
            if a.gwrite then Hashtbl.replace written (a.garr, e) ()
            else if
              (not (Hashtbl.mem written (a.garr, e)))
              && not (covered_earlier t a.garr e)
            then conflicts := true)
        accs)
    tuples;
  !conflicts

(* render a generated nest so qcheck failures are reproducible by eye *)
let print_nest (depth, bounds, accs) =
  Fmt.str "depth=%d bounds=[%s] accs=[%s]" depth
    (String.concat ";" (List.map string_of_int bounds))
    (String.concat "; "
       (List.map
          (fun a ->
            Fmt.str "%s %s(%s)"
              (if a.gwrite then "W" else "R")
              a.garr
              (Fir.Expr.to_string a.gsub))
          accs))

(* [nest_gen] with every subscript divided by 1, 2 or 3.  Integer
   division truncates (as [eval_expr] does), so iterations 2k-1 and 2k of
   [A((I1+1)/2)] write one element: a quotient taken as exact rational
   scaling would hide that collision. *)
let division_nest_gen =
  let open QCheck2.Gen in
  let* depth, bounds, accs = nest_gen in
  let+ divisors = list_repeat (List.length accs) (int_range 1 3) in
  ( depth,
    bounds,
    List.map2
      (fun a d -> { a with gsub = Ast.Binary (Ast.Div, a.gsub, Ast.Int_lit d) })
      accs divisors )

let polaris_verdicts_sound spec =
  let depth, _, _ = spec in
  let u = build_nest spec in
  let p = Program.create [ u ] in
  ignore (Passes.Parallelize.run ~mode:Passes.Parallelize.Polaris p);
  let ok = ref true in
  let pos = ref 0 in
  Stmt.iter
    (fun (s : Ast.stmt) ->
      match s.kind with
      | Ast.Do d ->
        incr pos;
        let k = !pos in
        if d.info.par && d.info.reductions = [] && k <= depth then
          if brute_force_carries ~privates:d.info.privates spec k then
            ok := false
      | _ -> ())
    u.pu_body;
  !ok

let prop_driver_sound =
  QCheck2.Test.make ~name:"parallel verdicts are sound (brute force)" ~count:150
    ~print:print_nest nest_gen polaris_verdicts_sound

let prop_driver_sound_division =
  QCheck2.Test.make ~name:"parallel verdicts are sound with division (brute force)"
    ~count:150 ~print:print_nest division_nest_gen polaris_verdicts_sound

let prop_baseline_sound =
  QCheck2.Test.make ~name:"baseline verdicts are sound (brute force)" ~count:150
    ~print:print_nest nest_gen (fun spec ->
      let depth, _, _ = spec in
      let u = build_nest spec in
      let p = Program.create [ u ] in
      ignore (Passes.Parallelize.run ~mode:Passes.Parallelize.Baseline p);
      let ok = ref true in
      let pos = ref 0 in
      Stmt.iter
        (fun (s : Ast.stmt) ->
          match s.kind with
          | Ast.Do d ->
            incr pos;
            let k = !pos in
            if d.info.par && d.info.reductions = [] && k <= depth then
              if brute_force_carries spec k then ok := false
          | _ -> ())
        u.pu_body;
      !ok)

let tests =
  [ ("gcd test", `Quick, test_gcd);
    ("banerjee directions", `Quick, test_banerjee_directions);
    ("strong SIV", `Quick, test_siv);
    ("range test pair", `Quick, test_range_test_pair);
    ("symbolic stride: polaris vs baseline", `Quick, test_polaris_nonlinear_stride);
    ("true dependence stays serial", `Quick, test_true_dependence_rejected);
    ("anti dependence stays serial", `Quick, test_anti_dependence_rejected);
    ("OCEAN needs promotion", `Quick, test_ocean_permutation_needed) ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_driver_sound; prop_baseline_sound; prop_driver_sound_division ]
