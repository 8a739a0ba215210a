(** Forward constant and copy propagation.

    Propagates scalar definitions [v = e] to later uses when the
    definition dominates the use and neither [v] nor anything [e]
    depends on is redefined in between, and [e] has [v]'s static class
    ({!Fir.Sclass}), so the substitution keeps the conversion the store
    performs.  PARAMETER constants are propagated everywhere, as their
    declared types store them ({!Fir.Punit.parameter_bindings}).
    This is the pass that turns TRFD's [X = X0] into the fully
    substituted subscript after induction substitution (paper Fig. 2),
    and it feeds interprocedural constants after inlining (paper §3.3,
    OCEAN preconditioning).

    A definition is propagated into a loop body only if none of its
    dependencies (including the defined variable) is assigned anywhere
    in that body, so one forward pass is sound without iteration. *)

open Fir
open Ast

(* should we substitute this RHS?  constants and cheap expressions
   always; larger expressions only into subscript-ish integer uses -
   to keep things simple we propagate any expression up to a size cap *)
let rec expr_size (e : expr) =
  1 + Util.Listx.sum_by expr_size (Expr.children e)

let max_propagated_size = 24

type envmap = (string * expr) list

let kill (env : envmap) names =
  List.filter
    (fun (v, e) ->
      (not (List.mem v names))
      && not (List.exists (fun n -> Expr.mentions n e) names))
    env

let apply (env : envmap) (e : expr) =
  if env = [] then e
  else
    Expr.simplify
      (Expr.map
         (function
           | Var v as orig -> (
             match List.assoc_opt v env with Some by -> by | None -> orig)
           | x -> x)
         e)

let rec prop_block (symtab : Symtab.t) (env : envmap) (b : block) :
    block * envmap =
  List.fold_left
    (fun (out, env) (s : stmt) ->
      (* a labeled statement may be a backward-GOTO target: facts from
         the fall-through path do not hold there *)
      let env = if s.label = None then env else [] in
      match s.kind with
      | Assign (Var v, rhs) ->
        let rhs' = apply env rhs in
        let env = kill env [ v ] in
        let env =
          (* the store converts to [v]'s class: [rhs'] stands for [v]
             only when it already has that class *)
          let cls = Sclass.of_symtab symtab in
          if
            Option.is_some (cls v)
            && Sclass.classify cls rhs' = cls v
            && expr_size rhs' <= max_propagated_size
            && (not (Expr.mentions v rhs'))
            && (not
                  (List.exists
                     (fun n -> Symtab.is_array symtab n)
                     (Expr.all_names rhs')))
            && not (Expr.exists (function Fun_call _ -> true | _ -> false) rhs')
          then (v, rhs') :: env
          else env
        in
        ({ s with kind = Assign (Var v, rhs') } :: out, env)
      | Assign (Ref (a, subs), rhs) ->
        let s' =
          { s with
            kind = Assign (Ref (a, List.map (apply env) subs), apply env rhs) }
        in
        (s' :: out, env)
      | Assign (lhs, rhs) ->
        ({ s with kind = Assign (apply env lhs, apply env rhs) } :: out, env)
      | If (c, t, e) ->
        let c' = apply env c in
        let t', _ = prop_block symtab env t in
        let e', _ = prop_block symtab env e in
        let env = kill env (Stmt.assigned_names t @ Stmt.assigned_names e) in
        ({ s with kind = If (c', t', e') } :: out, env)
      | Do d ->
        let init' = apply env d.init in
        let limit' = apply env d.limit in
        let step' = Option.map (apply env) d.step in
        (* inside the body, only definitions untouched by the body
           survive; the index is of course killed *)
        let body_kill = d.index :: Stmt.assigned_names d.body in
        let env_in = kill env body_kill in
        let body', _ = prop_block symtab env_in d.body in
        let env = kill env body_kill in
        ( { s with
            kind = Do { d with init = init'; limit = limit'; step = step'; body = body' } }
          :: out,
          env )
      | While (c, body) ->
        let body_kill = Stmt.assigned_names body in
        let env_in = kill env body_kill in
        let c' = apply env_in c in
        let body', _ = prop_block symtab env_in body in
        let env = kill env body_kill in
        ({ s with kind = While (c', body') } :: out, env)
      | Call (n, args) ->
        let args' = List.map (apply env) args in
        (* by-reference effects: kill anything passed, plus commons *)
        let commons =
          Symtab.fold
            (fun nm sym acc -> if sym.sym_common <> None then nm :: acc else acc)
            symtab []
        in
        let env = kill env (List.concat_map Expr.all_names args' @ commons) in
        ({ s with kind = Call (n, args') } :: out, env)
      | Print args ->
        ({ s with kind = Print (List.map (apply env) args) } :: out, env)
      | Goto _ -> (s :: out, []) (* unstructured flow: drop all facts *)
      | Continue | Return | Stop -> (s :: out, env))
    ([], env) b
  |> fun (out, env) -> (List.rev out, env)

(** Run constant/copy propagation on a unit (in place).  The propagated
    body is built first, purely; the unit is only touched when the
    result differs in content from the original (compared by sid-free
    block fingerprints). *)
let run_unit (p : Program.t) (u : Punit.t) =
  let params =
    List.map (fun (v, e) -> (v, e)) (Punit.parameter_bindings u)
  in
  let body', _ = prop_block u.pu_symtab params u.pu_body in
  if
    not
      (String.equal
         (Punit.block_fingerprint body')
         (Punit.block_fingerprint u.pu_body))
  then begin
    Program.touch p u;
    u.pu_body <- body';
    Consistency.check_unit u
  end

let run (p : Program.t) =
  List.iter (fun u -> run_unit p u) (Program.units p)
