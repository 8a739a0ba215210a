(** Generalized induction-variable substitution (paper §3.2).

    Recognizes scalar recurrences [V = V + inc] whose increment is a
    loop index, a loop-invariant expression, or an expression over other
    induction variables (cascaded inductions), including triangular
    nests where inner bounds depend on outer indices (Fig. 1 / Fig. 2 of
    the paper).  The pass follows the paper's three steps:

    + locate candidate induction statements (unconditional recurrences);
    + compute the closed form at the beginning of each loop iteration
      (and the last value after the loop) by summing the per-iteration
      increment across the iteration space with exact Faulhaber
      summation ({!Symbolic.Summation}), recursing into inner loops;
    + substitute every use with "closed form at the loop header plus
      increments up to the point of use", delete the recurrences, and
      assign the last value after the loop.

    Regions are loops taken outermost-first: a variable disqualified in
    an outer region (e.g. [X] in TRFD, reassigned by [X = X0] inside the
    [I] loop) is retried in the inner region where all its assignments
    are induction-form.

    A CALL or a user FUNCTION reference in a region may assign what its
    actuals name and any COMMON member (DESIGN §10b): no candidate and
    no increment may name them, and a user function's result is no
    invariant increment. *)

open Fir
open Ast
open Symbolic

(* ------------------------------------------------------------------ *)
(* Recurrence-statement recognition                                    *)

type update =
  | Add of Poly.t        (** v = v + inc *)
  | Mul of expr          (** v = v * c, c a constant (geometric, [13]) *)

(** [incr_of v rhs] recognizes [v + inc] (up to reassociation, [inc] not
    mentioning [v]) or [v * c] with [c] a numeric constant. *)
let incr_of v (rhs : expr) : update option =
  let p = Poly.of_expr rhs in
  let va = Atom.var v in
  let v = Symtab.norm v in
  if Poly.degree va p <> 1 then None
  else
    let coeffs = Poly.coeffs_in va p in
    let lin = List.assoc_opt 1 coeffs in
    let rest = Option.value ~default:Poly.zero (List.assoc_opt 0 coeffs) in
    match lin with
    | Some c when Poly.equal c Poly.one && not (Poly.mentions_var v rest) ->
      Some (Add rest)
    | Some c when Poly.is_zero rest -> (
      (* v = c * v: geometric progression; c an integer or real literal *)
      (* real factors must be exact powers of two, or the closed form
         c**n would differ from the iterated products in floating point *)
      let numeric_const = function
        | Int_lit _ -> true
        | Real_lit x -> x > 0.0 && fst (Float.frexp x) = 0.5
        | Unary (Neg, Int_lit _) -> true
        | _ -> false
      in
      match rhs with
      | Binary (Ast.Mul, Var w, k) when String.equal w v && numeric_const k ->
        Some (Mul k)
      | Binary (Ast.Mul, k, Var w) when String.equal w v && numeric_const k ->
        Some (Mul k)
      | _ ->
        (match Poly.const_val c with
        | Some r when Util.Rat.is_integer r ->
          Some (Mul (Int_lit (Util.Rat.to_int r)))
        | _ -> None))
    | _ -> None

let is_induction_stmt (s : stmt) : (string * update) option =
  match s.kind with
  | Assign (Var v, rhs) -> (
    match incr_of v rhs with Some u -> Some (v, u) | None -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Candidate discovery over a region (a block)                         *)

type context_flag = Plain | Conditional

(* (var, context, is_induction_form) for every scalar assignment *)
let assignment_contexts (b : block) : (string * context_flag * bool) list =
  let acc = ref [] in
  let rec go flag (b : block) =
    List.iter
      (fun (s : stmt) ->
        match s.kind with
        | Assign (Var v, _) ->
          acc := (v, flag, is_induction_stmt s <> None) :: !acc
        | Assign (_, _) -> ()
        | If (_, t, e) ->
          go Conditional t;
          go Conditional e
        | While (_, body) -> go Conditional body
        | Do d ->
          acc := (d.index, flag, false) :: !acc;
          let step_ok =
            match d.step with None -> true | Some e -> Expr.int_val e = Some 1
          in
          (* inside a non-unit-step loop we cannot sum: treat as
             conditional so its updates disqualify *)
          go (if step_ok then flag else Conditional) d.body
        | _ -> ())
      b
  in
  go Plain b;
  !acc

(* what the region's CALLs and references to the user functions
   [functions] may assign: the names in their actuals, and the COMMON
   members *)
let call_assigned ~functions (symtab : Symtab.t) (b : block) : string list =
  match Stmt.call_actuals ~functions b with
  | None -> []
  | Some args ->
    List.concat_map Expr.all_names args @ Symtab.commons symtab
    |> List.sort_uniq String.compare

let written_arrays (symtab : Symtab.t) (b : block) =
  Stmt.fold
    (fun acc (s : stmt) ->
      match s.kind with
      | Assign (Ref (a, _), _) -> a :: acc
      | Call (_, args) ->
        List.concat_map
          (fun e -> List.filter (Symtab.is_array symtab) (Expr.all_names e))
          args
        @ acc
      | _ -> acc)
    [] b
  |> List.sort_uniq String.compare

(** Induction candidates of region [b]: integer scalars whose region
    assignments are all unconditional induction updates, not loop
    indices, not assigned by calls, with increments built from loop
    indices, other candidates and region-invariant values ([functions]
    names the user functions: a reference to one is not invariant). *)
let candidates_of ?(generalized = true) ~functions (symtab : Symtab.t)
    (b : block) : string list =
  if Stmt.exists (fun s -> match s.kind with Goto _ -> true | _ -> false) b
  then []
  else begin
    let ctxs = assignment_contexts b in
    let vars =
      List.sort_uniq String.compare (List.map (fun (v, _, _) -> v) ctxs)
    in
    let call_names = call_assigned ~functions symtab b in
    let base_ok v =
      Symtab.type_of symtab v = Integer
      && (not (Symtab.is_array symtab v))
      && (not (List.mem v call_names))
      && List.for_all
           (fun (w, flag, ind) ->
             (not (String.equal w v)) || (flag = Plain && ind))
           ctxs
      && List.exists (fun (w, _, ind) -> String.equal w v && ind) ctxs
    in
    let cands = List.filter base_ok vars in
    (* multiplicative recurrences are handled separately *)
    let cands =
      List.filter
        (fun v ->
          Stmt.fold
            (fun ok (s : stmt) ->
              ok
              &&
              match is_induction_stmt s with
              | Some (w, Mul _) when String.equal w v -> false
              | _ -> true)
            true b)
        cands
    in
    (* classic compilers ("current compilers", paper §3.2) only solve
       inductions in rectangular nests: when not generalized, exclude
       variables updated under a loop whose bounds depend on an
       enclosing loop index of the region *)
    let triangular_updated =
      let acc = ref [] in
      let rec go enclosing triangular (b : block) =
        List.iter
          (fun (s : stmt) ->
            match s.kind with
            | Assign (Var v, _) -> if triangular then acc := v :: !acc
            | If (_, t, e) ->
              go enclosing triangular t;
              go enclosing triangular e
            | While (_, b') -> go enclosing true b'
            | Do d ->
              let bound_vars =
                Expr.scalar_vars d.init @ Expr.scalar_vars d.limit
              in
              let tri =
                triangular
                || List.exists (fun i -> List.mem i bound_vars) enclosing
              in
              go (d.index :: enclosing) tri d.body
            | _ -> ())
          b
      in
      go [] false b;
      List.sort_uniq String.compare !acc
    in
    let cands =
      if generalized then cands
      else List.filter (fun v -> not (List.mem v triangular_updated)) cands
    in
    (* increments may only reference loop indices, candidates, and
       names not assigned in the region; iterate since removing one
       candidate can invalidate another *)
    let assigned = Stmt.assigned_names b @ call_names @ functions in
    let warrays = written_arrays symtab b in
    let do_indices =
      Stmt.fold
        (fun acc (s : stmt) ->
          match s.kind with Do d -> d.index :: acc | _ -> acc)
        [] b
    in
    let inc_ok cands inc =
      let names =
        List.concat_map
          (function
            | Atom.Avar v -> [ v ]
            | Atom.Aopaque e -> Expr.all_names e)
          (Poly.atoms inc)
      in
      List.for_all
        (fun n ->
          if generalized then
            List.mem n do_indices || List.mem n cands
            || ((not (List.mem n assigned)) && not (List.mem n warrays))
          else
            (* classic compilers: loop-invariant increments only *)
            (not (List.mem n do_indices))
            && (not (List.mem n cands))
            && (not (List.mem n assigned))
            && not (List.mem n warrays))
        names
    in
    let all_incs_ok cands v =
      Stmt.fold
        (fun ok (s : stmt) ->
          ok
          &&
          match is_induction_stmt s with
          | Some (w, Add inc) when String.equal w v -> inc_ok cands inc
          | Some (w, Mul _) when String.equal w v -> false
          | _ -> true)
        true b
    in
    let rec fixpoint cands =
      let cands' = List.filter (all_incs_ok cands) cands in
      if List.length cands' = List.length cands then cands else fixpoint cands'
    in
    fixpoint cands
  end

(** Multiplicative candidates of region [b]: scalars whose updates are
    all [v = v * c] for one shared constant [c], otherwise subject to
    the same conditions as {!candidates_of}; they must not appear in any
    other recurrence's increment (no geometric cascades). *)
let mul_candidates_of ?(generalized = true) ~functions (symtab : Symtab.t)
    (b : block) : (string * expr) list =
  if not generalized then []
  else if Stmt.exists (fun s -> match s.kind with Goto _ -> true | _ -> false) b
  then []
  else begin
    let ctxs = assignment_contexts b in
    let vars =
      List.sort_uniq String.compare (List.map (fun (v, _, _) -> v) ctxs)
    in
    let call_names = call_assigned ~functions symtab b in
    let factors v =
      Stmt.fold
        (fun acc (s : stmt) ->
          match is_induction_stmt s with
          | Some (w, Mul c) when String.equal w v -> c :: acc
          | _ -> acc)
        [] b
    in
    List.filter_map
      (fun v ->
        let ok_ctx =
          (not (Symtab.is_array symtab v))
          && (not (List.mem v call_names))
          && List.for_all
               (fun (w, flag, ind) ->
                 (not (String.equal w v)) || (flag = Plain && ind))
               ctxs
        in
        match factors v with
        | c :: rest when ok_ctx && List.for_all (Expr.equal c) rest ->
          (* v must have ONLY multiplicative updates *)
          let all_mul =
            Stmt.fold
              (fun ok (s : stmt) ->
                ok
                &&
                match is_induction_stmt s with
                | Some (w, Add _) when String.equal w v -> false
                | _ -> true)
              true b
          in
          if all_mul then Some (v, c) else None
        | _ -> None)
      vars
  end

(* dependence-topological order of candidates; drops cycles *)
let topo_order (b : block) (cands : string list) : string list =
  let deps v =
    Stmt.fold
      (fun acc (s : stmt) ->
        match is_induction_stmt s with
        | Some (w, Add inc) when String.equal w v ->
          List.filter
            (fun c -> Poly.mentions_var c inc && not (String.equal c v))
            cands
          @ acc
        | _ -> acc)
      [] b
    |> List.sort_uniq String.compare
  in
  let rec visit (order, state) v =
    match List.assoc_opt v state with
    | Some `Done -> (order, state)
    | Some `Active -> raise Exit
    | None ->
      let state = (v, `Active) :: state in
      let order, state = List.fold_left visit (order, state) (deps v) in
      (v :: order, (v, `Done) :: List.remove_assoc v state)
  in
  let order, _ =
    List.fold_left
      (fun (order, state) v ->
        try visit (order, state) v with Exit -> (order, state))
      ([], []) cands
  in
  List.rev order

(* ------------------------------------------------------------------ *)
(* Offsets                                                             *)

exception Give_up

(* offset map: candidate -> polynomial increment since region entry.
   Inside rewritten code [Var v] denotes v's region-entry value, because
   all updates to v inside the region are deleted. *)
type offsets = (string * Poly.t) list

let offset (o : offsets) v = Option.value ~default:Poly.zero (List.assoc_opt v o)
let set_offset (o : offsets) v p = (v, p) :: List.remove_assoc v o
let closed_form o v = Poly.add (Poly.var v) (offset o v)

(* substitute candidate atoms of a polynomial by their closed forms at
   the current point *)
let resolve (order : string list) (o : offsets) (p : Poly.t) : Poly.t =
  List.fold_left (fun p v -> Poly.subst (Atom.var v) (closed_form o v) p) p order

let rewrite_expr ?(mulvars : (string * expr) list = []) (order : string list)
    (o : offsets) (e : expr) : expr =
  Expr.map
    (function
      | Var v when List.mem v order && not (Poly.is_zero (offset o v)) ->
        Poly.to_expr (closed_form o v)
      | Var v
        when List.mem_assoc v mulvars && not (Poly.is_zero (offset o v)) ->
        (* geometric closed form: v * c ** (application count) *)
        Binary
          ( Ast.Mul,
            Var v,
            Binary (Pow, List.assoc v mulvars, Poly.to_expr (offset o v)) )
      | e -> e)
    e

(* ------------------------------------------------------------------ *)
(* Increment analysis and summation                                    *)

(* per-execution increment of each candidate over one run of [b],
   relative to the values at the start of that run; candidate atoms in
   the result denote start-of-run values *)
let rec analyze ?(mulvars : (string * expr) list = []) (order : string list)
    (b : block) : offsets =
  List.fold_left
    (fun acc (s : stmt) ->
      match s.kind with
      | Assign (Var v, _) when List.mem v order -> (
        match is_induction_stmt s with
        | Some (_, Add inc) ->
          let inc = resolve order acc inc in
          set_offset acc v (Poly.add (offset acc v) inc)
        | Some (_, Mul _) | None -> raise Give_up)
      | Assign (Var v, _) when List.mem_assoc v mulvars -> (
        (* exponent counting: each application multiplies once *)
        match is_induction_stmt s with
        | Some (_, Mul _) -> set_offset acc v (Poly.add (offset acc v) Poly.one)
        | Some (_, Add _) | None -> raise Give_up)
      | Do d ->
        let deltas = analyze ~mulvars order d.body in
        if List.for_all (fun (_, p) -> Poly.is_zero p) deltas then acc
        else begin
          let lo = resolve order acc (Poly.of_expr d.init) in
          let hi = resolve order acc (Poly.of_expr d.limit) in
          let sums =
            sums_for
              ~order:(order @ List.map fst mulvars)
              ~index:d.index ~lo ~before:acc deltas
          in
          (* totals = sums evaluated at j := hi + 1 *)
          List.fold_left
            (fun acc (v, s) ->
              let total =
                Poly.subst (Atom.var d.index) (Poly.add hi Poly.one) s
              in
              set_offset acc v (Poly.add (offset acc v) total))
            acc sums
        end
      | _ -> acc)
    [] b

(* S_v(j) = sum of v's per-iteration increment for iterations lo..j-1,
   as a polynomial in the loop index [index]; cascaded increments are
   resolved in topological [order] *)
and sums_for ~(order : string list) ~(index : string) ~(lo : Poly.t)
    ~(before : offsets) (deltas : offsets) : offsets =
  let t = "__T" ^ index in
  let t_poly = Poly.var t in
  let j_minus_1 = Poly.sub (Poly.var index) Poly.one in
  List.fold_left
    (fun (sums : offsets) v ->
      let d = offset deltas v in
      if Poly.is_zero d then sums
      else begin
        (* delta at iteration t, with candidate atoms resolved to their
           value at the start of iteration t *)
        let d_t = Poly.subst (Atom.var index) t_poly d in
        let d_t =
          List.fold_left
            (fun p w ->
              if not (Poly.mentions_var w p) then p
              else if String.equal w v then raise Give_up
              else
                let s_w_t = Poly.subst (Atom.var index) t_poly (offset sums w) in
                let value_at_t =
                  Poly.add (Poly.var w) (Poly.add (offset before w) s_w_t)
                in
                Poly.subst (Atom.var w) value_at_t p)
            d_t order
        in
        let s =
          try Summation.sum ~index:t ~lo ~hi:j_minus_1 d_t
          with Invalid_argument _ -> raise Give_up
        in
        set_offset sums v s
      end)
    [] order

(* ------------------------------------------------------------------ *)
(* The rewriting walk                                                  *)

let rec rewrite_block ?(mulvars : (string * expr) list = [])
    (order : string list) (o : offsets) (b : block) : block * offsets =
  let rewrite_expr = rewrite_expr ~mulvars in
  let rewrite_block = rewrite_block ~mulvars in
  let analyze = analyze ~mulvars in
  List.fold_left
    (fun (out, o) (s : stmt) ->
      match s.kind with
      | Assign (Var v, _) when List.mem v order -> (
        match is_induction_stmt s with
        | Some (_, Add inc) ->
          let inc = resolve order o inc in
          (out, set_offset o v (Poly.add (offset o v) inc))
        | Some (_, Mul _) | None -> raise Give_up)
      | Assign (Var v, _) when List.mem_assoc v mulvars -> (
        match is_induction_stmt s with
        | Some (_, Mul _) -> (out, set_offset o v (Poly.add (offset o v) Poly.one))
        | Some (_, Add _) | None -> raise Give_up)
      | Assign (lhs, rhs) ->
        let s' =
          { s with kind = Assign (rewrite_expr order o lhs, rewrite_expr order o rhs) }
        in
        (s' :: out, o)
      | If (c, t, e) ->
        (* candidate updates never occur under IF (checked), so the
           offsets are unchanged by either branch *)
        let t', _ = rewrite_block order o t in
        let e', _ = rewrite_block order o e in
        ({ s with kind = If (rewrite_expr order o c, t', e') } :: out, o)
      | While (c, body) ->
        let body', _ = rewrite_block order o body in
        ({ s with kind = While (rewrite_expr order o c, body') } :: out, o)
      | Do d ->
        let deltas = analyze order d.body in
        let init' = rewrite_expr order o d.init in
        let limit' = rewrite_expr order o d.limit in
        let step' = Option.map (rewrite_expr order o) d.step in
        if List.for_all (fun (_, p) -> Poly.is_zero p) deltas then begin
          let body', _ = rewrite_block order o d.body in
          ({ s with kind = Do { d with init = init'; limit = limit'; step = step'; body = body' } } :: out, o)
        end
        else begin
          let lo = resolve order o (Poly.of_expr d.init) in
          let hi = resolve order o (Poly.of_expr d.limit) in
          let sums =
            sums_for
              ~order:(order @ List.map fst mulvars)
              ~index:d.index ~lo ~before:o deltas
          in
          let iter_o =
            List.fold_left
              (fun acc (v, s) -> set_offset acc v (Poly.add (offset o v) s))
              o sums
          in
          let body', _ = rewrite_block order iter_o d.body in
          let after_o =
            List.fold_left
              (fun acc (v, s) ->
                let total =
                  Poly.subst (Atom.var d.index) (Poly.add hi Poly.one) s
                in
                set_offset acc v (Poly.add (offset o v) total))
              o sums
          in
          ( { s with kind = Do { d with init = init'; limit = limit'; step = step'; body = body' } }
            :: out,
            after_o )
        end
      | Call (n, args) ->
        ({ s with kind = Call (n, List.map (rewrite_expr order o) args) } :: out, o)
      | Print args ->
        ({ s with kind = Print (List.map (rewrite_expr order o) args) } :: out, o)
      | Goto _ -> raise Give_up
      | Continue | Return | Stop -> (s :: out, o))
    ([], o) b
  |> fun (out, o) -> (List.rev out, o)

(* ------------------------------------------------------------------ *)
(* Region driver                                                       *)

type report = { mutable substituted : (string * string) list }
    (** (variable, region loop index) pairs solved *)

(* try to substitute the candidates of the region consisting of the
   single loop statement [s]; returns the replacement statements *)
let try_loop_region ~generalized ~functions (symtab : Symtab.t)
    (report : report) (s : stmt) (d : do_loop) : stmt list option =
  let region = [ s ] in
  let cands = candidates_of ~generalized ~functions symtab region in
  let mulvars = mul_candidates_of ~generalized ~functions symtab region in
  match (topo_order region cands, mulvars) with
  | [], [] -> None
  | order, mulvars -> (
    try
      let region', final = rewrite_block ~mulvars order [] region in
      (* last-value assignments reference the *entry* values of the
         other candidates, so emit them in reverse topological order:
         each total only mentions candidates not yet reassigned *)
      let last_values =
        List.filter_map
          (fun v ->
            let total = offset final v in
            if Poly.is_zero total then None
            else begin
              report.substituted <- (v, d.index) :: report.substituted;
              Some
                (Stmt.assign (Var v)
                   (Poly.to_expr (Poly.add (Poly.var v) total)))
            end)
          (List.rev order)
      in
      let mul_last_values =
        List.filter_map
          (fun (v, c) ->
            let total = offset final v in
            if Poly.is_zero total then None
            else begin
              report.substituted <- (v, d.index) :: report.substituted;
              Some
                (Stmt.assign (Var v)
                   (Binary (Ast.Mul, Var v, Binary (Pow, c, Poly.to_expr total))))
            end)
          mulvars
      in
      Some (region' @ last_values @ mul_last_values)
    with Give_up -> None)

(** Substitute induction variables throughout a block, processing loops
    outermost-first and retrying disqualified variables in inner loops. *)
let rec process_block ~generalized ~functions (symtab : Symtab.t)
    (report : report) (b : block) : block =
  let recur = process_block ~generalized ~functions symtab report in
  List.concat_map
    (fun (s : stmt) ->
      match s.kind with
      | Do d -> (
        match try_loop_region ~generalized ~functions symtab report s d with
        | Some replacement ->
          (* recurse into the rewritten loops for further candidates *)
          List.map
            (fun (s' : stmt) ->
              match s'.kind with
              | Do d' -> { s' with kind = Do { d' with body = recur d'.body } }
              | _ -> s')
            replacement
        | None -> [ { s with kind = Do { d with body = recur d.body } } ])
      | If (c, t, e) -> [ { s with kind = If (c, recur t, recur e) } ]
      | While (c, body) -> [ { s with kind = While (c, recur body) } ]
      | _ -> [ s ])
    b

(** Run induction substitution on a program unit (in place).  Returns
    the list of (variable, loop index) pairs that were substituted.
    [process_block] is pure — the rewritten body is built first, and
    the unit is only touched when a substitution actually happened. *)
let run_unit ?(generalized = true) ~functions (p : Program.t) (u : Punit.t) :
    (string * string) list =
  let report = { substituted = [] } in
  let body' = process_block ~generalized ~functions u.pu_symtab report u.pu_body in
  if report.substituted <> [] then begin
    Program.touch p u;
    u.pu_body <- body';
    Consistency.check_unit u
  end;
  List.rev report.substituted

(** The caches this pass looks up (for the pipeline's reuse ledger):
    candidate recognition lifts increments and loop bounds to
    polynomials. *)
let consumes = [ "poly.of_expr" ]

let run ?(generalized = true) (p : Program.t) : (string * string) list =
  let functions = Program.functions p in
  List.concat_map (fun u -> run_unit ~generalized ~functions p u) (Program.units p)
