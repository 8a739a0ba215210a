(** Loop-nest discovery and normalized loop descriptors.

    A [nest] is a loop together with the enclosing loops from outermost
    to itself; the dependence tests and the induction pass work on these
    descriptors, with loop bounds already lifted to polynomials. *)

open Fir
open Ast

type loop = {
  stmt : stmt;           (** the DO statement *)
  dloop : do_loop;       (** its payload *)
  lo : Symbolic.Poly.t;  (** init as a polynomial *)
  hi : Symbolic.Poly.t;  (** limit as a polynomial *)
  step : int option;     (** constant step if known *)
  index : Symbolic.Atom.t;
}

type nest = {
  loops : loop list;     (** outermost first; last = this nest's innermost *)
  body : block;          (** body of the innermost loop of [loops] *)
}

let describe (s : stmt) (d : do_loop) : loop =
  { stmt = s; dloop = d;
    lo = Symbolic.Poly.of_expr d.init;
    hi = Symbolic.Poly.of_expr d.limit;
    step = (match d.step with None -> Some 1 | Some e -> Expr.int_val e);
    index = Symbolic.Atom.var d.index }

(** All loops of a block with their enclosing-loop context (outermost
    first), in source order.  A plain walk with no memo: a caller that
    needs the nests of one block twice keeps the list, as
    [Passes.Parallelize] does for each loop body it analyzes. *)
let nests_of_block (b : block) : nest list =
  let acc = ref [] in
  let rec go context (b : block) =
    List.iter
      (fun s ->
        match s.kind with
        | Do d ->
          let me = describe s d in
          let loops = context @ [ me ] in
          acc := { loops; body = d.body } :: !acc;
          go loops d.body
        | If (_, t, e) ->
          go context t;
          go context e
        | While (_, body) -> go context body
        | _ -> ())
      b
  in
  go [] b;
  List.rev !acc

let nests_of_unit (u : Punit.t) = nests_of_block u.pu_body

(** The innermost loop of a nest. *)
let innermost (n : nest) = Util.Listx.last n.loops

(** Does the loop body contain unstructured control flow (GOTO), STOP,
    RETURN or I/O that prevents parallelization? *)
let has_disqualifying_control (b : block) =
  Stmt.exists
    (fun s ->
      match s.kind with
      | Goto _ | Return | Stop | Print _ -> true
      | While _ -> true
      | _ -> false)
    b

(** Range environment of facts for analyzing the body of nest [n]:
    every loop index bounded by its bounds, loop-non-emptiness facts,
    plus the facts [outer_env] (e.g. from {!Symbolic.Range_prop})
    holding at the outermost loop.

    The environment lists innermost loops first, which is the
    elimination order the range test wants. *)
let nest_env ?(outer_env = Symbolic.Range.empty) (n : nest) : Symbolic.Range.env =
  List.fold_left
    (fun env (l : loop) ->
      match l.step with
      | Some s when s > 0 ->
        let env = Symbolic.Range.refine env l.index (Symbolic.Range.between l.lo l.hi) in
        (* the body only runs when the loop is non-empty *)
        Symbolic.Range_prop.assume_nonneg env (Symbolic.Poly.sub l.hi l.lo)
      | Some s when s < 0 ->
        let env = Symbolic.Range.refine env l.index (Symbolic.Range.between l.hi l.lo) in
        Symbolic.Range_prop.assume_nonneg env (Symbolic.Poly.sub l.lo l.hi)
      | _ -> env)
    outer_env n.loops
