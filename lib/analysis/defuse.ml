(** Scalar def/use classification for a loop body (paper §3.4, scalar
    part).

    For each scalar referenced in the body of a candidate parallel loop
    we decide between:
    - [Read_only]: never written — shared safely;
    - [Private]: every read is dominated by a write of the same
      iteration — privatizable;
    - [Exposed]: some read may see a value from a previous iteration —
      a loop-carried scalar dependence unless the induction or
      reduction pass solves it.

    Domination is computed with a single structured walk maintaining the
    set of definitely-written scalars: writes under IF only dominate
    within their branch (branches are rejoined by intersection); writes
    inside an inner loop only dominate reads later in that body (the
    loop may run zero times, so they do not dominate code after it). *)

open Fir
open Ast

type scalar_class = Read_only | Private | Exposed

type stats = { mutable written : bool; mutable exposed : bool }

module S = Set.Make (String)

(** Scalar classification of a loop body, sorted by name. *)
let classify (body : block) : (string * scalar_class) list =
  let tbl : (string, stats) Hashtbl.t = Hashtbl.create 16 in
  let stat v =
    match Hashtbl.find_opt tbl v with
    | Some s -> s
    | None ->
      let s = { written = false; exposed = false } in
      Hashtbl.replace tbl v s;
      s
  in
  let read_var dom v =
    let s = stat v in
    if not (S.mem v !dom) then s.exposed <- true
  in
  let read_expr dom e =
    Expr.iter (function Var v -> read_var dom v | _ -> ()) e
  in
  let write_var dom v =
    let s = stat v in
    s.written <- true;
    dom := S.add v !dom
  in
  let rec walk dom (b : block) =
    List.iter
      (fun s ->
        match s.kind with
        | Assign (Var v, rhs) ->
          read_expr dom rhs;
          write_var dom v
        | Assign (Ref (_, subs), rhs) ->
          List.iter (read_expr dom) subs;
          read_expr dom rhs
        | Assign (_, _) -> ()
        | If (c, t, e) ->
          read_expr dom c;
          let dom_t = ref !dom and dom_e = ref !dom in
          walk dom_t t;
          walk dom_e e;
          dom := S.union !dom (S.inter !dom_t !dom_e)
        | Do d ->
          read_expr dom d.init;
          read_expr dom d.limit;
          Option.iter (read_expr dom) d.step;
          write_var dom d.index;
          (* the body may run zero times: its writes do not dominate
             statements after the loop *)
          let dom_body = ref !dom in
          walk dom_body d.body
        | While (c, body) ->
          read_expr dom c;
          let dom_body = ref !dom in
          walk dom_body body
        | Call (_, args) | Print args -> List.iter (read_expr dom) args
        | Goto _ | Continue | Return | Stop -> ())
      b
  in
  walk (ref S.empty) body;
  Hashtbl.fold
    (fun v s acc ->
      let cls =
        if not s.written then Read_only
        else if s.exposed then Exposed
        else Private
      in
      (v, cls) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(** Scalars of a given class. *)
let of_class cls classified =
  List.filter_map (fun (v, c) -> if c = cls then Some v else None) classified
