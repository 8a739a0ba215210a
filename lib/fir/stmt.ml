(** Operations on statements and statement blocks.

    Polaris' [StmtList] class offered iterators over selected statement
    kinds, well-formedness checks, and copy/insert/delete of well-formed
    sublists; the equivalents here are ordinary functions over the
    structured {!Ast.block} representation. *)

open Ast

(* ------------------------------------------------------------------ *)
(* Identity                                                            *)

(* atomic: the validation oracle deep-copies programs inside worker
   domains, so id allocation must be race-free.  Note id *values* then
   depend on allocation order across domains — nothing downstream may
   key behaviour on them beyond uniqueness (comparisons in the
   benchmark and tests deliberately exclude sids). *)
let counter = Atomic.make 0

(** Globally fresh statement id. *)
let fresh_id () = Atomic.fetch_and_add counter 1 + 1

let mk ?label kind = { sid = fresh_id (); label; kind }

let assign ?label lhs rhs = mk ?label (Assign (lhs, rhs))

let do_ ?label ?step index ~init ~limit body =
  mk ?label
    (Do { index = String.uppercase_ascii index; init; limit; step; body;
          info = fresh_loop_info () })

(* ------------------------------------------------------------------ *)
(* Copying                                                             *)

(** Deep copy with fresh statement ids and fresh loop annotations.
    Polaris forbade structure sharing between statements; a transformation
    wanting to reuse a statement must copy it. *)
let rec copy s =
  let kind =
    match s.kind with
    | Assign (l, r) -> Assign (l, r)
    | If (c, t, e) -> If (c, copy_block t, copy_block e)
    | Do d ->
      Do { d with body = copy_block d.body;
           info = { d.info with privates = d.info.privates } }
    | While (c, b) -> While (c, copy_block b)
    | (Call _ | Goto _ | Continue | Return | Stop | Print _) as k -> k
  in
  { s with sid = fresh_id (); kind }

and copy_block b = List.map copy b

(* ------------------------------------------------------------------ *)
(* Traversal                                                           *)

(** Iterate over every statement of a block, innermost included,
    in source order. *)
let rec iter f (b : block) = List.iter (iter_stmt f) b

and iter_stmt f s =
  f s;
  match s.kind with
  | If (_, t, e) ->
    iter f t;
    iter f e
  | Do d -> iter f d.body
  | While (_, b) -> iter f b
  | Assign _ | Call _ | Goto _ | Continue | Return | Stop | Print _ -> ()

let fold f acc b =
  let r = ref acc in
  iter (fun s -> r := f !r s) b;
  !r

let exists p b = fold (fun acc s -> acc || p s) false b

(** All statements of the block, flattened in source order. *)
let all_stmts b = List.rev (fold (fun acc s -> s :: acc) [] b)

(** All [Do] loops of the block (outer loops listed before inner). *)
let loops b =
  all_stmts b
  |> List.filter_map (fun s -> match s.kind with Do d -> Some (s, d) | _ -> None)

(* ------------------------------------------------------------------ *)
(* Expression access                                                   *)

(** Every expression appearing directly in statement [s] (not recursing
    into nested statements).  The first component tags the role. *)
type expr_role = Elhs | Erhs | Econd | Ebound | Earg

let exprs_of s =
  match s.kind with
  | Assign (l, r) -> [ (Elhs, l); (Erhs, r) ]
  | If (c, _, _) -> [ (Econd, c) ]
  | Do d ->
    (Ebound, d.init) :: (Ebound, d.limit)
    :: (match d.step with Some e -> [ (Ebound, e) ] | None -> [])
  | While (c, _) -> [ (Econd, c) ]
  | Call (_, args) -> List.map (fun a -> (Earg, a)) args
  | Print args -> List.map (fun a -> (Earg, a)) args
  | Goto _ | Continue | Return | Stop -> []

(** Rewrite every expression of [s] (deep, including nested statements)
    with [f], rebuilding the statement tree.  Statement ids are kept. *)
let rec map_exprs f s =
  let kind =
    match s.kind with
    | Assign (l, r) -> Assign (f l, f r)
    | If (c, t, e) -> If (f c, map_block_exprs f t, map_block_exprs f e)
    | Do d ->
      Do
        { d with
          init = f d.init;
          limit = f d.limit;
          step = Option.map f d.step;
          body = map_block_exprs f d.body }
    | While (c, b) -> While (f c, map_block_exprs f b)
    | Call (n, args) -> Call (n, List.map f args)
    | Print args -> Print (List.map f args)
    | (Goto _ | Continue | Return | Stop) as k -> k
  in
  { s with kind }

and map_block_exprs f b = List.map (map_exprs f) b

(** Iterate over every expression of the block, deep. *)
let iter_exprs f b =
  iter (fun s -> List.iter (fun (_, e) -> f e) (exprs_of s)) b

(** All names assigned (as scalar or array element) anywhere in [b]. *)
let assigned_names b =
  fold
    (fun acc s ->
      match s.kind with
      | Assign (Var v, _) | Assign (Ref (v, _), _) -> v :: acc
      | Do d -> d.index :: acc
      | _ -> acc)
    [] b
  |> List.sort_uniq String.compare

(** The actuals of [b]'s CALL statements and of its references to the
    user functions [functions], or [None] when [b] makes no such call.
    Arguments pass by reference, so a callee may assign what they name,
    and any COMMON member. *)
let call_actuals ~functions b =
  let add args acc = Some (args @ Option.value acc ~default:[]) in
  let references acc e =
    Expr.fold
      (fun acc -> function
        | Fun_call (f, args) when List.mem f functions -> add args acc
        | _ -> acc)
      acc e
  in
  fold
    (fun acc s ->
      let acc = match s.kind with Call (_, args) -> add args acc | _ -> acc in
      (* most programs have no FUNCTION unit: skip the expression walk *)
      if functions = [] then acc
      else List.fold_left (fun acc (_, e) -> references acc e) acc (exprs_of s))
    None b

(** [mentions name b]: does any expression of [b] reference [name]? *)
let mentions name b =
  exists (fun s -> List.exists (fun (_, e) -> Expr.mentions name e) (exprs_of s)) b

(* ------------------------------------------------------------------ *)
(* Structured-block rewriting                                          *)

(** Rebuild a block bottom-up: [f] receives each statement with already
    rewritten children and returns its replacement list (possibly empty
    or longer, enabling statement deletion/insertion). *)
let rec rewrite (f : stmt -> stmt list) (b : block) : block =
  List.concat_map
    (fun s ->
      let s' =
        match s.kind with
        | If (c, t, e) -> { s with kind = If (c, rewrite f t, rewrite f e) }
        | Do d -> { s with kind = Do { d with body = rewrite f d.body } }
        | While (c, body) -> { s with kind = While (c, rewrite f body) }
        | _ -> s
      in
      f s')
    b

(* ------------------------------------------------------------------ *)
(* Printing (debug-oriented; the faithful unparser is Frontend.Unparse) *)

let rec pp_block ?(indent = 0) ppf b = List.iter (pp_stmt ~indent ppf) b

and pp_stmt ~indent ppf s =
  let pad = String.make indent ' ' in
  let lbl = match s.label with Some l -> Fmt.str "%d " l | None -> "" in
  match s.kind with
  | Assign (l, r) -> Fmt.pf ppf "%s%s%a = %a@." pad lbl Expr.pp l Expr.pp r
  | If (c, t, []) ->
    Fmt.pf ppf "%s%sIF (%a) THEN@." pad lbl Expr.pp c;
    pp_block ~indent:(indent + 2) ppf t;
    Fmt.pf ppf "%sEND IF@." pad
  | If (c, t, e) ->
    Fmt.pf ppf "%s%sIF (%a) THEN@." pad lbl Expr.pp c;
    pp_block ~indent:(indent + 2) ppf t;
    Fmt.pf ppf "%sELSE@." pad;
    pp_block ~indent:(indent + 2) ppf e;
    Fmt.pf ppf "%sEND IF@." pad
  | Do d ->
    let step = match d.step with Some e -> Fmt.str ", %s" (Expr.to_string e) | None -> "" in
    let mark = if d.info.par then "  !$ DOALL" else "" in
    Fmt.pf ppf "%s%sDO %s = %a, %a%s%s@." pad lbl d.index Expr.pp d.init Expr.pp
      d.limit step mark;
    pp_block ~indent:(indent + 2) ppf d.body;
    Fmt.pf ppf "%sEND DO@." pad
  | While (c, b) ->
    Fmt.pf ppf "%s%sDO WHILE (%a)@." pad lbl Expr.pp c;
    pp_block ~indent:(indent + 2) ppf b;
    Fmt.pf ppf "%sEND DO@." pad
  | Call (n, args) ->
    Fmt.pf ppf "%s%sCALL %s(%a)@." pad lbl n Fmt.(list ~sep:(any ", ") Expr.pp) args
  | Goto l -> Fmt.pf ppf "%s%sGOTO %d@." pad lbl l
  | Continue -> Fmt.pf ppf "%s%sCONTINUE@." pad lbl
  | Return -> Fmt.pf ppf "%s%sRETURN@." pad lbl
  | Stop -> Fmt.pf ppf "%s%sSTOP@." pad lbl
  | Print args ->
    Fmt.pf ppf "%s%sPRINT *, %a@." pad lbl Fmt.(list ~sep:(any ", ") Expr.pp) args
