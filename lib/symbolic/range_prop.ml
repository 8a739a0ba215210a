(** Control-flow range propagation (paper §3.3.1).

    Determines symbolic lower/upper bounds for variables inside every
    DO loop of a unit by walking the structured AST once from the unit
    entry, collecting facts from DO headers (index within bounds, loop
    non-empty), IF guards, and simple assignments, and killing facts
    invalidated by assignments and calls.

    This is a deliberately one-pass, kill-based analysis: a variable
    assigned inside a region loses its range unless re-established, so
    no fixpoint iteration is required while soundness is preserved. *)

open Fir
open Ast

(* ------------------------------------------------------------------ *)
(* Facts from relational expressions                                   *)

(* [assume_nonneg env f]: record the fact [f >= 0] by refining the
   interval of every atom occurring linearly in [f] with a constant
   coefficient. *)
let assume_nonneg (env : Range.env) (f : Poly.t) : Range.env =
  List.fold_left
    (fun env a ->
      if Poly.degree a f <> 1 then env
      else
        match Poly.coeffs_in a f with
        | ([ (0, _); (1, c) ] | [ (1, c) ]) when Poly.is_const c -> (
          let rest =
            match Poly.coeffs_in a f with
            | [ (0, r); (1, _) ] -> r
            | _ -> Poly.zero
          in
          match Poly.const_val c with
          | Some c when Util.Rat.sign c > 0 ->
            (* c*a + rest >= 0  =>  a >= -rest/c *)
            let bound = Poly.scale (Util.Rat.div Util.Rat.minus_one c) rest in
            if Poly.contains_atom a bound then env
            else Range.refine env a (Range.at_least bound)
          | Some c when Util.Rat.sign c < 0 ->
            let bound = Poly.scale (Util.Rat.div Util.Rat.minus_one c) rest in
            if Poly.contains_atom a bound then env
            else Range.refine env a (Range.at_most bound)
          | _ -> env)
        | _ -> env)
    env (Poly.atoms f)

(* integer-typed test used to sharpen strict inequalities; consults the
   symbol table when available, implicit naming otherwise *)
let is_integer_expr (symtab : Symtab.t option) (e : expr) =
  let names = Expr.all_names e in
  List.for_all
    (fun n ->
      match symtab with
      | Some st -> Symtab.type_of st n = Integer
      | None -> Symtab.implicit_type n = Integer)
    names

(** Facts implied by the truth of condition [cond]. *)
let rec assume_cond ?symtab (env : Range.env) (cond : expr) : Range.env =
  match cond with
  | Binary (And, a, b) -> assume_cond ?symtab (assume_cond ?symtab env a) b
  | Binary (((Le | Lt | Ge | Gt | Eq) as op), a, b) -> (
    let pa = Poly.of_expr a and pb = Poly.of_expr b in
    let strictable = is_integer_expr symtab a && is_integer_expr symtab b in
    let nonneg f = assume_nonneg env f in
    match op with
    | Le -> nonneg (Poly.sub pb pa)
    | Ge -> nonneg (Poly.sub pa pb)
    | Lt ->
      let d = Poly.sub pb pa in
      nonneg (if strictable then Poly.sub d Poly.one else d)
    | Gt ->
      let d = Poly.sub pa pb in
      nonneg (if strictable then Poly.sub d Poly.one else d)
    | Eq -> assume_nonneg (assume_nonneg env (Poly.sub pa pb)) (Poly.sub pb pa)
    | _ -> env)
  | _ -> env

(** Facts implied by the falsity of [cond] (negation of simple tests). *)
let assume_not_cond ?symtab (env : Range.env) (cond : expr) : Range.env =
  let negated =
    match cond with
    | Binary (Lt, a, b) -> Some (Binary (Ge, a, b))
    | Binary (Le, a, b) -> Some (Binary (Gt, a, b))
    | Binary (Gt, a, b) -> Some (Binary (Le, a, b))
    | Binary (Ge, a, b) -> Some (Binary (Lt, a, b))
    | Binary (Ne, a, b) -> Some (Binary (Eq, a, b))
    | Unary (Not, c) -> Some c
    | _ -> None
  in
  match negated with
  | Some c -> assume_cond ?symtab env c
  | None -> env

(* ------------------------------------------------------------------ *)
(* Effects of statements on the environment                            *)

let kill_names env names = List.fold_left Range.kill_var env names

(** Environment facts for executing inside loop [d]'s body: every name
    assigned in the body is killed, then the index interval and the
    loop-non-emptiness fact are pushed (sound: the body only runs when
    the trip count is positive). *)
let enter_loop ?symtab:_ (env : Range.env) (d : do_loop) : Range.env =
  let assigned = Stmt.assigned_names d.body in
  let env = kill_names env (d.index :: assigned) in
  let lo = Poly.of_expr d.init and hi = Poly.of_expr d.limit in
  let step = match d.step with Some e -> Expr.int_val e | None -> Some 1 in
  match step with
  | Some s when s > 0 ->
    let env = Range.refine env (Atom.var d.index) (Range.between lo hi) in
    assume_nonneg env (Poly.sub hi lo)
  | Some s when s < 0 ->
    let env = Range.refine env (Atom.var d.index) (Range.between hi lo) in
    assume_nonneg env (Poly.sub lo hi)
  | _ -> env

let exit_loop (env : Range.env) (d : do_loop) : Range.env =
  kill_names env (d.index :: Stmt.assigned_names d.body)

(* conservative effect of one statement executed to completion *)
let after_stmt ?symtab (env : Range.env) (s : stmt) : Range.env =
  match s.kind with
  | Assign (Var v, rhs) ->
    let env = Range.kill_var env v in
    let p = Poly.of_expr rhs in
    if Poly.mentions_var (Symtab.norm v) p then env
    else Range.refine env (Atom.var v) (Range.exact p)
  | Assign (Ref (v, _), _) -> Range.kill_var env v
  | Assign (_, _) -> env
  | If (_, t, e) -> kill_names env (Stmt.assigned_names t @ Stmt.assigned_names e)
  | Do d -> exit_loop env d
  | While (_, b) -> kill_names env (Stmt.assigned_names b)
  | Call (_, args) ->
    (* by-reference arguments and commons may change *)
    let arg_names = List.concat_map Expr.all_names args in
    let commons =
      match symtab with
      | Some st ->
        Symtab.fold
          (fun n sym acc -> if sym.sym_common <> None then n :: acc else acc)
          st []
      | None -> []
    in
    kill_names env (arg_names @ commons)
  | Goto _ -> []  (* unstructured flow: drop everything, stay sound *)
  | Continue | Return | Stop | Print _ -> env

(* ------------------------------------------------------------------ *)
(* Environments at the loop heads                                      *)

(* walk a block, calling [at_do env] at every DO statement, in
   preorder, with the environment holding *inside* its body (index
   bounds included) *)
let rec walk ?symtab ~at_do (env : Range.env) (b : block) =
  ignore
    (List.fold_left
       (fun env s ->
         (* labeled statements may be backward-GOTO targets *)
         let env = if s.label = None then env else Range.empty in
         (match s.kind with
         | If (c, t, e) ->
           walk ?symtab ~at_do (assume_cond ?symtab env c) t;
           walk ?symtab ~at_do (assume_not_cond ?symtab env c) e
         | Do d ->
           let inside = enter_loop ?symtab env d in
           at_do inside;
           walk ?symtab ~at_do inside d.body
         | While (c, body) ->
           let env' =
             kill_names (assume_cond ?symtab env c) (Stmt.assigned_names body)
           in
           walk ?symtab ~at_do env' body
         | _ -> ());
         after_stmt ?symtab env s)
       env b)

(** Environment of facts known on entry of the unit: PARAMETER constants
    pinned to their values. *)
let initial_env (u : Punit.t) : Range.env =
  List.fold_left
    (fun env (name, value) ->
      let p = Poly.of_expr value in
      Range.refine env (Atom.var name) (Range.exact p))
    Range.empty (Punit.parameter_bindings u)

(* One walk of the unit yields the environment of every loop.  The
   cache is content-addressed: the key is the unit's canonical
   {!Fir.Punit.fingerprint} (symbol table + body, statement ids and
   loop decisions excluded), which determines the walk, and the value
   lists the envs in the preorder of the DO statements, so it holds no
   statement id either.  Recompiling the same source, or re-analyzing
   an untouched unit, reuses the entry although every id is fresh. *)
module Env_cache = Cache.Make (struct
  type t = string

  (* a string hashes in full under the polymorphic hash *)
  let hash = Hashtbl.hash
end)

let env_cache : Range.env list Env_cache.t =
  Env_cache.create ~name:"range_prop.env_at" ~persist:true ()

(** [(sid, env)] for every DO statement of [u], outer loops before
    inner: [env] is the range environment holding inside the loop's
    body. *)
let loop_envs (u : Punit.t) : (int * Range.env) list =
  let compute () =
    let envs = ref [] in
    walk ~symtab:u.pu_symtab
      ~at_do:(fun env -> envs := env :: !envs)
      (initial_env u) u.pu_body;
    List.rev !envs
  in
  let envs =
    if not !Util.Cachectl.enabled then compute ()
    else Env_cache.memo env_cache (Punit.fingerprint u) compute
  in
  (* [Stmt.loops] visits the DO statements in the walk's order *)
  List.map2 (fun ((s : stmt), _) env -> (s.sid, env)) (Punit.loops u) envs
