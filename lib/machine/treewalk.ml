(** Direct tree-walking evaluator: the reference semantics of {!Interp}.

    Every variable access goes through a name-keyed environment, and
    every statement is interpreted straight from the IR.  It shares
    {!Interp}'s machine state, cost constants, fuel and hooks (all but
    [on_parallel_do], which only the lowered executor offers), so the two
    executors can be compared on capture, statement count and simulated
    time.  Only the validation oracle ({!Valid.Oracle.execute}) and the
    tests run it, which keeps every lowered execution checked against an
    independent implementation. *)

open Fir
open Ast
open Interp

type frame = {
  unit_ : Punit.t;
  vars : (string, Storage.binding) Hashtbl.t;
}

(* ------------------------------------------------------------------ *)
(* Variable binding                                                    *)

let rec const_int_expr st (fr : frame) e =
  (* dimension expressions: evaluated with parameters and current frame *)
  Value.to_int (eval st fr e)

and binding_for st (fr : frame) name : Storage.binding =
  match Hashtbl.find_opt fr.vars name with
  | Some b -> b
  | None ->
    let sym = Symtab.lookup fr.unit_.pu_symtab name in
    let b =
      match sym.sym_common with
      | Some blk -> common_binding st fr blk sym
      | None ->
        (match sym.sym_param with
        | Some value ->
          (* parameters are bound once to their constant value *)
          let b = Storage.scalar_binding sym.sym_type in
          Storage.write_elem b.view 0 (eval st fr value);
          b
        | None ->
          maybe_seed st sym.sym_name
            (if sym.sym_dims = [] then Storage.scalar_binding sym.sym_type
             else Storage.array_binding sym.sym_type (eval_dims st fr sym)))
    in
    Hashtbl.replace fr.vars name b;
    b

(* dummy-array dimension expressions may reference other dummies (e.g.
   B(N)): they are evaluated in the callee frame after scalars are bound *)
and eval_dims st fr (sym : symbol) =
  List.map
    (fun (lo, hi) ->
      let lo = const_int_expr st fr lo in
      match hi with
      | Var "*" -> (lo, -1)
      | _ ->
        let hi = const_int_expr st fr hi in
        (lo, hi - lo + 1))
    sym.sym_dims

and common_binding st fr blk (sym : symbol) =
  let key = blk ^ "/" ^ sym.sym_name in
  match Hashtbl.find_opt st.commons key with
  | Some b -> b
  | None ->
    let b =
      maybe_seed st key
        (if sym.sym_dims = [] then Storage.scalar_binding sym.sym_type
         else Storage.array_binding sym.sym_type (eval_dims st fr sym))
    in
    Hashtbl.replace st.commons key b;
    b

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)

and element_index st fr name (subs : expr list) =
  let b = binding_for st fr name in
  if b.dims = [] then error "%s subscripted but bound as scalar" name;
  let subs = List.map (fun e -> Value.to_int (eval st fr e)) subs in
  charge st (List.length subs);
  (b, Storage.linear_index b.dims subs)

and eval st fr (e : expr) : Value.t =
  match e with
  | Int_lit n -> Value.Int n
  | Real_lit x -> Value.Real x
  | Logical_lit b -> Value.Bool b
  | Char_lit s -> Value.Str s
  | Wildcard n -> error "wildcard ?%d evaluated" n
  | Var v ->
    let b = binding_for st fr v in
    if b.dims <> [] then error "array %s used as scalar" v;
    Storage.read_elem b.view 0
  | Ref (v, subs) ->
    let b, i = element_index st fr v subs in
    (match st.on_access with Some f -> f R v i | None -> ());
    charge_mem st b.view i;
    Storage.read_elem b.view i
  | Unary (op, a) ->
    charge st Cost.unop;
    let va = eval st fr a in
    (match op with Neg -> Value.neg va | Not -> Value.Bool (not (Value.to_bool va)))
  | Binary (op, a, b) -> (
    charge st (Cost.binop op);
    match op with
    | And ->
      (* no short-circuit in F77 semantics, but evaluation order is free;
         we evaluate both, matching most compilers' simple codegen *)
      let va = Value.to_bool (eval st fr a) in
      let vb = Value.to_bool (eval st fr b) in
      Value.Bool (va && vb)
    | Or ->
      let va = Value.to_bool (eval st fr a) in
      let vb = Value.to_bool (eval st fr b) in
      Value.Bool (va || vb)
    | _ ->
      let va = eval st fr a in
      let vb = eval st fr b in
      (match op with
      | Add -> Value.add va vb
      | Sub -> Value.sub va vb
      | Mul -> Value.mul va vb
      | Div -> Value.div va vb
      | Pow -> Value.pow va vb
      | Eq -> Value.Bool (Value.equal va vb)
      | Ne -> Value.Bool (not (Value.equal va vb))
      | Lt -> Value.Bool (Value.lt va vb)
      | Le -> Value.Bool (Value.le va vb)
      | Gt -> Value.Bool (Value.gt va vb)
      | Ge -> Value.Bool (Value.ge va vb)
      | And | Or -> assert false))
  | Fun_call (f, args) -> eval_call st fr f args

and eval_call st fr f args =
  match intrinsic st fr f args with
  | Some v -> v
  | None -> (
    match Program.find_unit st.prog f with
    | Some u when Punit.is_function u ->
      charge st Cost.call;
      let callee = call_frame st fr u args in
      run_unit_body st callee;
      let ret = binding_for st callee f in
      Storage.read_elem ret.view 0
    | _ -> error "unknown function %s" f)

and intrinsic st fr name args =
  let open Value in
  let ev e = eval st fr e in
  let unary f = match args with [ a ] -> Some (f (ev a)) | _ -> None in
  let nary2 f =
    match List.map ev args with
    | a :: rest -> Some (List.fold_left f a rest)
    | [] -> None
  in
  let r =
    match name with
    | "ABS" | "IABS" | "DABS" ->
      unary (function Int n -> Int (abs n) | v -> Real (Float.abs (to_float v)))
    | "MOD" | "AMOD" | "DMOD" -> (
      match List.map ev args with
      | [ Int a; Int b ] -> Some (Int (a mod b))
      | [ a; b ] -> Some (Real (Float.rem (to_float a) (to_float b)))
      | _ -> None)
    | "MAX" | "MAX0" | "AMAX1" | "DMAX1" -> nary2 max_num
    | "MIN" | "MIN0" | "AMIN1" | "DMIN1" -> nary2 min_num
    | "SQRT" | "DSQRT" -> unary (fun v -> Real (Float.sqrt (to_float v)))
    | "SIN" | "DSIN" -> unary (fun v -> Real (Float.sin (to_float v)))
    | "COS" | "DCOS" -> unary (fun v -> Real (Float.cos (to_float v)))
    | "TAN" | "DTAN" -> unary (fun v -> Real (Float.tan (to_float v)))
    | "ATAN" | "DATAN" -> unary (fun v -> Real (Float.atan (to_float v)))
    | "EXP" | "DEXP" -> unary (fun v -> Real (Float.exp (to_float v)))
    | "LOG" | "ALOG" | "DLOG" -> unary (fun v -> Real (Float.log (to_float v)))
    | "INT" | "IFIX" | "IDINT" -> unary (fun v -> Int (to_int v))
    | "NINT" | "IDNINT" ->
      unary (fun v -> Int (int_of_float (Float.round (to_float v))))
    | "REAL" | "FLOAT" | "DBLE" | "SNGL" -> unary (fun v -> Real (to_float v))
    | "SIGN" | "ISIGN" | "DSIGN" -> (
      match List.map ev args with
      | [ a; b ] ->
        let mag = Float.abs (to_float a) in
        let v = if to_float b < 0.0 then -.mag else mag in
        Some (match a with Int _ -> Int (int_of_float v) | _ -> Real v)
      | _ -> None)
    | _ -> None
  in
  if r <> None then charge st Cost.intrinsic;
  r

(* ------------------------------------------------------------------ *)
(* Calls                                                               *)

and call_frame st (caller : frame) (u : Punit.t) (actuals : expr list) : frame =
  if List.length actuals <> List.length u.pu_args then
    error "%s called with %d args, expects %d" u.pu_name (List.length actuals)
      (List.length u.pu_args);
  let callee = { unit_ = u; vars = Hashtbl.create 16 } in
  (* two-phase binding: scalars first, then arrays, because an array
     formal's dimension expressions may reference scalar formals that
     appear later in the argument list (adjustable arrays) *)
  let bind_scalar formal actual =
    let bound : Storage.binding =
      match actual with
      | Var v ->
        let b = binding_for st caller v in
        (* scalar dummy: alias the caller's cell (or an array's first
           element when a whole array is passed) *)
        { b with dims = [] }
      | Ref (v, subs) ->
        let b, i = element_index st caller v subs in
        let view = { b.Storage.view with off = b.Storage.view.off + i } in
        { Storage.view; dims = []; elem = b.elem }
      | e ->
        (* expression actual: copy-in, read-only temporary *)
        let v = eval st caller e in
        let typ = match v with Value.Int _ -> Integer | _ -> Real in
        let b = Storage.scalar_binding typ in
        Storage.write_elem b.view 0 v;
        b
    in
    Hashtbl.replace callee.vars formal bound
  in
  let bind_array formal actual (sym : symbol) =
    let bound : Storage.binding =
      match actual with
      | Var v ->
        let b = binding_for st caller v in
        { b with dims = eval_dims st callee sym }
      | Ref (v, subs) ->
        let b, i = element_index st caller v subs in
        let view = { b.Storage.view with off = b.Storage.view.off + i } in
        { Storage.view; dims = eval_dims st callee sym; elem = b.elem }
      | e -> error "array formal %s bound to expression %s" formal (Expr.to_string e)
    in
    Hashtbl.replace callee.vars formal bound
  in
  let pairs = List.combine u.pu_args actuals in
  List.iter
    (fun (formal, actual) ->
      let sym = Symtab.lookup u.pu_symtab formal in
      if sym.sym_dims = [] then bind_scalar formal actual)
    pairs;
  List.iter
    (fun (formal, actual) ->
      let sym = Symtab.lookup u.pu_symtab formal in
      if sym.sym_dims <> [] then bind_array formal actual sym)
    pairs;
  callee

(* ------------------------------------------------------------------ *)
(* Statement execution                                                 *)

and assign_to st fr lhs v =
  match lhs with
  | Var name ->
    let b = binding_for st fr name in
    if b.dims <> [] then error "array %s assigned as scalar" name;
    (match st.on_assign with Some f -> f name | None -> ());
    Storage.write_elem b.view 0 v
  | Ref (name, subs) ->
    let b, i = element_index st fr name subs in
    (match st.on_access with Some f -> f W name i | None -> ());
    charge_mem st b.view i;
    Storage.write_elem b.view i v
  | e -> error "invalid assignment target %s" (Expr.to_string e)

and exec_block st fr (b : Ast.block) : outcome =
  let stmts = Array.of_list b in
  let n = Array.length stmts in
  let rec go pc =
    if pc >= n then Normal
    else
      match exec_stmt st fr stmts.(pc) with
      | Normal -> go (pc + 1)
      | Jump l -> (
        match find_label stmts l with
        | Some target -> go target
        | None -> Jump l)
      | (Returned | Stopped) as o -> o
  in
  go 0

and find_label stmts l =
  let n = Array.length stmts in
  let rec go i =
    if i >= n then None
    else if stmts.(i).label = Some l then Some i
    else go (i + 1)
  in
  go 0

and exec_stmt st fr (s : stmt) : outcome =
  tick st;
  match s.kind with
  | Assign (lhs, rhs) ->
    charge st Cost.assign;
    let v = eval st fr rhs in
    assign_to st fr lhs v;
    Normal
  | If (c, t, e) ->
    let cond = Value.to_bool (eval st fr c) in
    exec_block st fr (if cond then t else e)
  | Do d -> exec_do st fr s.sid d
  | While (c, body) ->
    let rec loop () =
      charge st Cost.loop_iter;
      if Value.to_bool (eval st fr c) then
        match exec_block st fr body with
        | Normal -> loop ()
        | o -> o
      else Normal
    in
    loop ()
  | Call (name, args) -> (
    match Program.find_unit st.prog name with
    | Some u ->
      charge st Cost.call;
      let callee = call_frame st fr u args in
      run_unit_body st callee;
      Normal
    | None -> error "unknown subroutine %s" name)
  | Goto l -> Jump l
  | Continue -> Normal
  | Return -> Returned
  | Stop -> Stopped
  | Print args ->
    charge st Cost.print;
    let line =
      String.concat " " (List.map (fun e -> Value.to_string (eval st fr e)) args)
    in
    st.output <- line :: st.output;
    Normal

and exec_do st fr sid (d : do_loop) : outcome =
  (* track the innermost executing loop for fuel-exhaustion diagnostics;
     restored on normal exit only — on an abort the innermost loop is
     exactly the location to report *)
  let enclosing_loop = st.cur_loop in
  st.cur_loop <- Some d.index;
  let outcome = exec_do_body st fr sid d in
  st.cur_loop <- enclosing_loop;
  outcome

and exec_do_body st fr sid (d : do_loop) : outcome =
  let init = Value.to_int (eval st fr d.init) in
  let limit = Value.to_int (eval st fr d.limit) in
  let step =
    match d.step with Some e -> Value.to_int (eval st fr e) | None -> 1
  in
  if step = 0 then error "DO %s: zero step" d.index;
  let trips = max 0 ((limit - init + step) / step) in
  let idx_binding = binding_for st fr d.index in
  let set_index v =
    (* the DO construct's index updates are scalar writes too *)
    (match st.on_assign with Some f -> f d.index | None -> ());
    Storage.write_elem idx_binding.view 0 (Value.Int v)
  in
  let simulate_parallel =
    st.cfg.parallel && d.info.par && (not d.info.speculative) && st.par_depth = 0
  in
  if simulate_parallel then begin
    st.par_depth <- st.par_depth + 1;
    let t0 = st.time in
    let iter_costs = Array.make trips 0 in
    let outcome = ref Normal in
    (try
       for k = 0 to trips - 1 do
         let before = st.time in
         (match st.on_loop_iter with Some f -> f sid k st.time | None -> ());
         set_index (init + (k * step));
         charge st Cost.loop_iter;
         (match exec_block st fr d.body with
         | Normal -> ()
         | o ->
           outcome := o;
           raise Exit);
         iter_costs.(k) <- st.time - before
       done
     with Exit -> ());
    set_index (init + (trips * step));
    st.par_depth <- st.par_depth - 1;
    if !outcome = Normal then begin
      let n_private =
        List.length d.info.privates + List.length d.info.lastprivates
      in
      let reduction_elems =
        Util.Listx.sum_by
          (fun (r : reduction) ->
            match r.red_form with
            | Private_copies ->
              (* one private cell per processor, merged at the join *)
              st.cfg.machine.procs
            | Expanded -> (
              match Symtab.find_opt fr.unit_.pu_symtab r.red_var with
              | Some sym -> (
                match Symtab.const_size sym with Some n -> n | None -> 1)
              | None -> 1))
          d.info.reductions
      in
      st.time <-
        t0 + Parsim.doall_time st.cfg.machine ~iter_costs ~n_private ~reduction_elems;
      (match st.on_loop_done with Some f -> f sid st.time | None -> ());
      Normal
    end
    else !outcome
    (* a non-local exit disables the parallel timing: time stays serial *)
  end
  else begin
    let outcome = ref Normal in
    (try
       for k = 0 to trips - 1 do
         (match st.on_loop_iter with Some f -> f sid k st.time | None -> ());
         set_index (init + (k * step));
         charge st Cost.loop_iter;
         match exec_block st fr d.body with
         | Normal -> ()
         | o ->
           outcome := o;
           raise Exit
       done
     with Exit -> ());
    if !outcome = Normal then set_index (init + (trips * step));
    (match st.on_loop_iter with Some f -> f sid trips st.time | None -> ());
    (match st.on_loop_done with Some f -> f sid st.time | None -> ());
    !outcome
  end

and run_unit_body st (fr : frame) =
  let caller = st.cur_unit in
  st.cur_unit <- fr.unit_.pu_name;
  (match exec_block st fr fr.unit_.pu_body with
  | Normal | Returned | Stopped -> ()
  | Jump l -> error "unit %s: GOTO %d escapes the unit" fr.unit_.pu_name l);
  st.cur_unit <- caller

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let main_frame (st : state) = { unit_ = Program.main st.prog; vars = Hashtbl.create 32 }

let capture_of st (fr : frame) =
  capture_of_vars st (Hashtbl.fold (fun name b acc -> (name, b) :: acc) fr.vars [])

(** Run the main unit and hand back the machine state and main frame. *)
let run_main ?cfg (prog : Program.t) : state * frame =
  let st = fresh_state ?cfg prog in
  let fr = main_frame st in
  run_unit_body st fr;
  (st, fr)

(** {!Interp.run_full}, by direct tree-walking. *)
let run_full ?cfg (prog : Program.t) : capture =
  let st, fr = run_main ?cfg prog in
  capture_of st fr
