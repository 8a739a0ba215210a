(** Reduction recognition (paper §3.2).

    Flags statements of the form

      [A(a1,...,an) = A(a1,...,an) op b]

    where [op] is [+] (also [-] via negation), [*], [MAX] or [MIN], the
    [ai] and [b] do not reference [A], [A] is not referenced elsewhere
    in the loop outside other reduction statements on [A], and [n] may
    be zero (scalar reduction).  Reductions into one fixed address are
    [Single_address]; those whose target element varies with the
    iteration are [Histogram].

    Candidate recognition uses the {!Fir.Pattern} wildcard machinery,
    mirroring Polaris' idiom-recognition pass; the dependence pass later
    relies on the returned statement ids to exclude flagged statements
    from dependence testing. *)

open Fir
open Ast

type found = {
  red : reduction;          (** variable, operator, kind *)
  stmt_ids : int list;      (** the flagged reduction statements *)
}

(* recognize [lhs op= beta]; returns the operator and beta *)
let reduction_rhs (lhs : expr) (rhs : expr) : (reduction_op * expr) option =
  let w = Wildcard 1 in
  let try_pat op pat =
    match Pattern.matches pat rhs with
    | Some b -> Some (op, Pattern.instantiate b (Wildcard 1))
    | None -> None
  in
  let candidates =
    [ (Rsum, Binary (Add, lhs, w));
      (Rsum, Binary (Add, w, lhs));
      (Rsum, Binary (Sub, lhs, w));
      (Rprod, Binary (Mul, lhs, w));
      (Rprod, Binary (Mul, w, lhs));
      (Rmax, Fun_call ("MAX", [ lhs; w ]));
      (Rmax, Fun_call ("MAX", [ w; lhs ]));
      (Rmax, Fun_call ("AMAX1", [ lhs; w ]));
      (Rmin, Fun_call ("MIN", [ lhs; w ]));
      (Rmin, Fun_call ("MIN", [ w; lhs ]));
      (Rmin, Fun_call ("AMIN1", [ lhs; w ])) ]
  in
  match
    List.fold_left
      (fun acc (op, pat) -> match acc with Some _ -> acc | None -> try_pat op pat)
      None candidates
  with
  | Some r -> Some r
  | None ->
    (* reassociated sums (e.g. [s = s + a + b]): recognize via the
       canonical polynomial: rhs = lhs + rest with coefficient 1 *)
    let module P = Symbolic.Poly in
    let module A = Symbolic.Atom in
    let atom =
      match lhs with
      | Var v -> Some (A.var v)
      | Ref _ -> Some (A.opaque lhs)
      | _ -> None
    in
    (match atom with
    | None -> None
    | Some a ->
      let p = P.of_expr rhs in
      if P.degree a p <> 1 then None
      else
        let coeffs = P.coeffs_in a p in
        let lin = List.assoc_opt 1 coeffs in
        let rest = Option.value ~default:P.zero (List.assoc_opt 0 coeffs) in
        (match lin with
        | Some c when P.equal c P.one -> Some (Rsum, P.to_expr rest)
        | _ -> None))

(* name of the reduction target *)
let target_name = function
  | Var v -> Some v
  | Ref (v, _) -> Some v
  | _ -> None

let is_reduction_stmt (s : stmt) : (string * reduction_op * expr list * expr) option =
  match s.kind with
  | Assign (lhs, rhs) -> (
    match (target_name lhs, reduction_rhs lhs rhs) with
    | Some v, Some (op, beta) ->
      let subs = match lhs with Ref (_, subs) -> subs | _ -> [] in
      (* neither subscripts nor beta may reference the target *)
      if Expr.mentions v beta || List.exists (Expr.mentions v) subs then None
      else Some (v, op, subs, beta)
    | _ -> None)
  | _ -> None

(* every reference to [v] in the body must be inside the flagged
   statements *)
let referenced_elsewhere (body : block) v (flagged : int list) =
  Stmt.fold
    (fun acc (s : stmt) ->
      acc
      || (not (List.mem s.sid flagged))
         && List.exists (fun (_, e) -> Expr.mentions v e) (Stmt.exprs_of s))
    false body

(* is the target address loop-varying (histogram) for this loop? *)
let is_histogram (body : block) (subs : expr list) =
  if subs = [] then false
  else
    let assigned = Stmt.assigned_names body in
    List.exists
      (fun sub -> List.exists (fun n -> Expr.mentions n sub) assigned)
      subs

(** Find the reductions of loop body [body].  All reduction statements
    on the same variable must use the same operator. *)
let find (symtab : Symtab.t) (body : block) : found list =
  ignore symtab;
  let stmts = Stmt.all_stmts body in
  let candidates =
    List.filter_map
      (fun s ->
        match is_reduction_stmt s with
        | Some (v, op, subs, _) -> Some (v, (op, subs, s.sid))
        | None -> None)
      stmts
  in
  let by_var = Hashtbl.create 8 in
  List.iter
    (fun (v, info) ->
      Hashtbl.replace by_var v
        (info :: Option.value ~default:[] (Hashtbl.find_opt by_var v)))
    candidates;
  Hashtbl.fold
    (fun v infos acc ->
      let ops = List.sort_uniq compare (List.map (fun (op, _, _) -> op) infos) in
      let sids = List.map (fun (_, _, sid) -> sid) infos in
      match ops with
      | [ op ] when not (referenced_elsewhere body v sids) ->
        let histogram =
          List.exists (fun (_, subs, _) -> is_histogram body subs) infos
        in
        let is_array = List.exists (fun (_, subs, _) -> subs <> []) infos in
        (* form selection (paper §3.2 / idiom-recognition paper): private
           copies for scalars, expansion for arrays *)
        let form = if is_array then Expanded else Private_copies in
        { red =
            { red_var = v; red_op = op;
              red_kind = (if histogram then Histogram else Single_address);
              red_form = form };
          stmt_ids = sids }
        :: acc
      | _ -> acc)
    by_var []
  |> List.sort (fun a b -> String.compare a.red.red_var b.red.red_var)
