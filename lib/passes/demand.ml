(** Demand-driven backward substitution for symbolic proofs (paper §3.4).

    Polaris proves relations like [MP >= M*P] (Fig. 4) by walking
    backwards from the use to the definitions in a gated-SSA form and
    substituting until the goal is discharged.  Here the reaching
    definitions visible at a program point are gathered with a
    kill-based forward walk (same discipline as {!Constprop}); a goal
    polynomial is then proved non-negative by alternating
    {!Symbolic.Compare} with substitution of one definition at a time,
    stopping as soon as the comparison succeeds — the demand-driven
    part: no substitution happens beyond what the proof needs. *)

open Fir
open Ast
open Symbolic

type defs = (string * expr) list

(* ------------------------------------------------------------------ *)
(* Reaching scalar definitions at a statement                          *)

let kill (env : defs) names =
  List.filter
    (fun (v, e) ->
      (not (List.mem v names))
      && not (List.exists (fun n -> Expr.mentions n e) names))
    env

exception Found of defs

let rec walk (symtab : Symtab.t) (env : defs) (b : block) ~target =
  ignore
    (List.fold_left
       (fun env (s : stmt) ->
         (* labeled statements may be backward-GOTO targets *)
         let env = if s.label = None then env else [] in
         if s.sid = target then raise (Found env);
         (match s.kind with
         | If (_, t, e) ->
           walk symtab env t ~target;
           walk symtab env e ~target
         | Do d ->
           let inside = kill env (d.index :: Stmt.assigned_names d.body) in
           walk symtab inside d.body ~target
         | While (_, body) ->
           walk symtab (kill env (Stmt.assigned_names body)) body ~target
         | _ -> ());
         match s.kind with
         | Assign (Var v, rhs) ->
           let env = kill env [ v ] in
           if
             Expr.mentions v rhs
             || List.exists (fun n -> Symtab.is_array symtab n) (Expr.all_names rhs)
             || Expr.exists (function Fun_call _ -> true | _ -> false) rhs
           then env
           else (v, rhs) :: env
         | Assign (Ref (_, _), _) -> env
         | Assign (_, _) -> env
         | If (_, t, e) -> kill env (Stmt.assigned_names t @ Stmt.assigned_names e)
         | Do d -> kill env (d.index :: Stmt.assigned_names d.body)
         | While (_, body) -> kill env (Stmt.assigned_names body)
         | Call (_, args) ->
           let commons =
             Symtab.fold
               (fun nm sym acc -> if sym.sym_common <> None then nm :: acc else acc)
               symtab []
           in
           kill env (List.concat_map Expr.all_names args @ commons)
         | Goto _ -> []
         | Continue | Return | Stop | Print _ -> env)
       env b)

(** Scalar definitions visible (dominating, unkilled) at statement
    [target] of unit [u], with PARAMETER bindings included.  Each call
    walks the whole unit, so the privatizer takes the definitions as an
    argument: {!Parallelize} walks them at most once per loop, on the
    first array it tries to privatize, and hands the same list to every
    later array of that loop. *)
let defs_at (u : Punit.t) ~(target : int) : defs =
  let params = Punit.parameter_bindings u in
  match walk u.pu_symtab params u.pu_body ~target with
  | () -> params
  | exception Found env -> env

(* ------------------------------------------------------------------ *)
(* The prover                                                          *)

(** Prove [goal >= 0] under range environment [env], substituting
    reaching definitions backwards on demand (at most [fuel] of them). *)
let rec prove_nonneg ?(fuel = 8) (defs : defs) (env : Range.env)
    (goal : Poly.t) : bool =
  Compare.prove_ge env goal Poly.zero
  || (fuel > 0
     &&
     let vars =
       List.filter_map
         (function Atom.Avar v -> Some v | Atom.Aopaque _ -> None)
         (Poly.atoms goal)
     in
     List.exists
       (fun v ->
         match List.assoc_opt v defs with
         | Some rhs ->
           let goal' = Poly.subst (Atom.var v) (Poly.of_expr rhs) goal in
           (not (Poly.equal goal' goal))
           && prove_nonneg ~fuel:(fuel - 1) defs env goal'
         | None -> false)
       vars)

(** Prove [a >= b] with backward substitution on demand. *)
let prove_ge ?fuel defs env a b = prove_nonneg ?fuel defs env (Poly.sub a b)

(** Prove [a <= b] with backward substitution on demand. *)
let prove_le ?fuel defs env a b = prove_nonneg ?fuel defs env (Poly.sub b a)
