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
    in that body, so one forward pass is sound without iteration.

    Arguments pass by reference, so a CALL or a user FUNCTION reference
    may assign a variable actual or a COMMON member: a variable actual
    is never substituted, an expression actual never becomes a
    variable, and a statement or body that makes such a call kills
    those names too (DESIGN §10b). *)

open Fir
open Ast

(* should we substitute this RHS?  constants and cheap expressions
   always; larger expressions only into subscript-ish integer uses -
   to keep things simple we propagate any expression up to a size cap *)
let rec expr_size (e : expr) =
  1 + Util.Listx.sum_by expr_size (Expr.children e)

let max_propagated_size = 24

type envmap = (string * expr) list

(* what one unit's propagation knows of the program *)
type ctx = {
  symtab : Symtab.t;
  functions : string list;  (** the program's FUNCTION units *)
  commons : string list Lazy.t;  (** the unit's COMMON members *)
}

let kill (env : envmap) names =
  match names with
  | [] -> env
  | _ ->
    List.filter
      (fun (v, e) ->
        (not (List.mem v names))
        && not (List.exists (fun n -> Expr.mentions n e) names))
      env

(* substitute [env] into [e] and simplify, bottom-up.  An actual of a
   user FUNCTION reference passes by reference: see [actual] *)
let rec sub ctx env e =
  match e with
  | Var v -> (
    match List.assoc_opt v env with Some by -> Expr.simplify by | None -> e)
  | Ref (a, subs) -> Ref (a, List.map (sub ctx env) subs)
  | Fun_call (f, args) when List.mem f ctx.functions ->
    Fun_call (f, List.map (actual ctx env) args)
  | Fun_call (f, args) -> Fun_call (f, List.map (sub ctx env) args)
  | Unary (op, a) -> Expr.simplify_node (Unary (op, sub ctx env a))
  | Binary (op, a, b) -> Expr.simplify_node (Binary (op, sub ctx env a, sub ctx env b))
  | Int_lit _ | Real_lit _ | Logical_lit _ | Char_lit _ | Wildcard _ -> e

(* a variable actual stays a variable, and an element actual keeps its
   array; an expression actual is a copy-in temporary, so it must not
   become a variable or an element the callee could assign *)
and actual ctx env a =
  match a with
  | Var _ -> a
  | Ref _ -> sub ctx env a
  | _ -> ( match sub ctx env a with Var _ | Ref _ -> a | a' -> a')

let apply ctx env e = if env = [] then e else sub ctx env e

(* what the CALLs and user FUNCTION references of [b] may assign *)
let call_kills ctx b =
  match Stmt.call_actuals ~functions:ctx.functions b with
  | None -> []
  | Some args -> List.concat_map Expr.all_names args @ Lazy.force ctx.commons

(* every name [b] may assign *)
let kills ctx b = call_kills ctx b @ Stmt.assigned_names b

let rec prop_block ctx (env : envmap) (b : block) : block * envmap =
  let symtab = ctx.symtab in
  List.fold_left
    (fun (out, env) (s : stmt) ->
      (* a labeled statement may be a backward-GOTO target: facts from
         the fall-through path do not hold there *)
      let env = if s.label = None then env else [] in
      match s.kind with
      | Assign (Var v, rhs) ->
        let rhs' = apply ctx env rhs in
        let env = kill env (v :: call_kills ctx [ s ]) in
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
            kind = Assign (Ref (a, List.map (apply ctx env) subs), apply ctx env rhs) }
        in
        (* no fact mentions an array, so the element written kills none *)
        (s' :: out, kill env (call_kills ctx [ s ]))
      | Assign (lhs, rhs) ->
        ( { s with kind = Assign (apply ctx env lhs, apply ctx env rhs) } :: out,
          kill env (kills ctx [ s ]) )
      | If (c, t, e) ->
        let c' = apply ctx env c in
        (* the branches run after the condition's calls *)
        let env_in = kill env (call_kills ctx [ { s with kind = If (c, [], []) } ]) in
        let t', _ = prop_block ctx env_in t in
        let e', _ = prop_block ctx env_in e in
        let env = kill env (kills ctx [ s ]) in
        ({ s with kind = If (c', t', e') } :: out, env)
      | Do d ->
        let init' = apply ctx env d.init in
        let limit' = apply ctx env d.limit in
        let step' = Option.map (apply ctx env) d.step in
        (* inside the body, only definitions untouched by the loop
           survive; the index is of course killed *)
        let body_kill = kills ctx [ s ] in
        let env_in = kill env body_kill in
        let body', _ = prop_block ctx env_in d.body in
        let env = kill env body_kill in
        ( { s with
            kind = Do { d with init = init'; limit = limit'; step = step'; body = body' } }
          :: out,
          env )
      | While (c, body) ->
        let body_kill = kills ctx [ s ] in
        let env_in = kill env body_kill in
        let c' = apply ctx env_in c in
        let body', _ = prop_block ctx env_in body in
        let env = kill env body_kill in
        ({ s with kind = While (c', body') } :: out, env)
      | Call (n, args) ->
        let args' = if env = [] then args else List.map (actual ctx env) args in
        ({ s with kind = Call (n, args') } :: out, kill env (call_kills ctx [ s ]))
      | Print args ->
        ( { s with kind = Print (List.map (apply ctx env) args) } :: out,
          kill env (call_kills ctx [ s ]) )
      | Goto _ -> (s :: out, []) (* unstructured flow: drop all facts *)
      | Continue | Return | Stop -> (s :: out, env))
    ([], env) b
  |> fun (out, env) -> (List.rev out, env)

(** Run constant/copy propagation on a unit (in place).  The propagated
    body is built first, purely; the unit is only touched when the
    result differs in content from the original (compared by sid-free
    block fingerprints). *)
let run_unit ~functions (p : Program.t) (u : Punit.t) =
  let params =
    List.map (fun (v, e) -> (v, e)) (Punit.parameter_bindings u)
  in
  let ctx =
    { symtab = u.pu_symtab;
      functions;
      commons = lazy (Symtab.commons u.pu_symtab) }
  in
  let body', _ = prop_block ctx params u.pu_body in
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
  let functions = Program.functions p in
  List.iter (fun u -> run_unit ~functions p u) (Program.units p)
