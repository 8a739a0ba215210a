(** Dead scalar-assignment elimination.

    After induction substitution and constant propagation many scalar
    assignments (old induction seeds, propagated copies, unused
    last-value updates) are never read again; this cleanup removes them.
    An assignment [v = e] is dead when [v] is a scalar that is never
    read anywhere in the unit after the pass ran to fixpoint, [e] has no
    side effects (no function calls that could reach user code), and [v]
    does not escape the unit ({!Fir.Punit.escapes}: a dummy argument, a
    COMMON member or a FUNCTION's result variable). *)

open Fir
open Ast

(* every scalar READ in the unit (array subscripts included; assignment
   left-hand sides excluded) *)
let read_scalars (u : Punit.t) =
  let acc = ref [] in
  Stmt.iter
    (fun (s : stmt) ->
      List.iter
        (fun ((role : Stmt.expr_role), e) ->
          let relevant =
            match (role, e) with
            | Stmt.Elhs, Ref (_, subs) -> subs
            | Stmt.Elhs, _ -> []
            | _, e -> [ e ]
          in
          List.iter
            (fun e ->
              Expr.iter
                (function Var v -> acc := v :: !acc | _ -> ())
                e)
            relevant)
        (Stmt.exprs_of s))
    u.pu_body;
  List.sort_uniq String.compare !acc

let has_call e = Expr.exists (function Fun_call _ -> true | _ -> false) e

(* one sweep, pure: the swept body and whether anything was removed *)
let sweep (u : Punit.t) : block * bool =
  let reads = read_scalars u in
  let changed = ref false in
  let body' =
    Stmt.rewrite
      (fun (s : stmt) ->
        match s.kind with
        | Assign (Var v, rhs)
          when (not (List.mem v reads))
               && (not (Punit.escapes u v))
               && (not (Symtab.is_array u.pu_symtab v))
               && (not (has_call rhs))
               && s.label = None ->
          changed := true;
          []
        | _ -> [ s ])
      u.pu_body
  in
  (body', !changed)

(** Remove dead scalar assignments from a unit, to fixpoint.  The first
    sweep is computed {e before} announcing any mutation: a unit with
    no dead assignment is never touched, so its invalidation version
    survives the pass. *)
let run_unit (p : Program.t) (u : Punit.t) : int =
  let body1, changed1 = sweep u in
  if not changed1 then 0
  else begin
    Program.touch p u;
    u.pu_body <- body1;
    let rounds = ref 1 in
    let continue_ = ref true in
    while !continue_ && !rounds < 16 do
      let body', changed = sweep u in
      if changed then begin
        u.pu_body <- body';
        incr rounds
      end
      else continue_ := false
    done;
    Consistency.check_unit u;
    !rounds
  end

let run (p : Program.t) : int =
  Util.Listx.sum_by (fun u -> run_unit p u) (Program.units p)
