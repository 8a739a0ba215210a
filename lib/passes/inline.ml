(** Subroutine inline expansion (paper §3.1).

    Polaris used full inline expansion of call sites into the top-level
    routine to get flow-sensitive interprocedural analysis.  Following
    the paper's design, expansion of a subprogram is split into a
    site-independent part — a {e template} with all locals renamed to
    fresh caller-level names — and a site-specific part: formal→actual
    remapping, label renumbering, RETURN rewriting, and (when formal and
    actual arrays do not conform) subscript {e linearization}.

    Scope: subroutine CALL statements.  Function calls in expressions
    are left to the interpreter (they disqualify enclosing loops from
    parallelization, like unanalyzed calls did in Polaris).  Recursive
    or unknown subroutines are left untouched.  COMMON-block members are
    shared by name, so they keep their names across inlining. *)

open Fir
open Ast

type stats = { mutable sites_expanded : int; mutable sites_skipped : int }

(* Copy-in temporary numbering.  Domain-local (a daemon running on its
   own domain, as in the serve tests, may compile beside another
   domain's compile) and reset at the start of every {!run}, so the
   ITMP names a compile emits are a pure function of its own source —
   identical across processes, requests and job counts. *)
let temp_counter : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0)

let fresh_temp () =
  let c = Domain.DLS.get temp_counter in
  incr c;
  Fmt.str "ITMP%d" !c

(* ------------------------------------------------------------------ *)
(* Templates (site-independent preparation)                            *)

type template = {
  t_unit : Punit.t;        (** copy with locals renamed UNITNAME_LOCAL *)
  t_formals : string list; (** renamed formal parameter names *)
}

let local_prefix u name = u.Punit.pu_name ^ "_" ^ name

(* site-independent transformation: rename every non-common symbol *)
let make_template (u : Punit.t) : template =
  let u = Punit.copy u in
  let rename_map = Hashtbl.create 16 in
  Symtab.fold
    (fun name sym () ->
      if sym.sym_common = None then
        Hashtbl.replace rename_map name (local_prefix u name))
    u.pu_symtab ();
  let rn name =
    match Hashtbl.find_opt rename_map name with Some n -> n | None -> name
  in
  let new_symtab = Symtab.create () in
  Symtab.fold
    (fun name sym () ->
      let dims =
        List.map
          (fun (lo, hi) -> (Expr.rename rn lo, Expr.rename rn hi))
          sym.sym_dims
      in
      let param = Option.map (Expr.rename rn) sym.sym_param in
      Symtab.define new_symtab
        { sym with sym_name = rn name; sym_dims = dims; sym_param = param })
    u.pu_symtab ();
  (* DO indices are strings, not expressions: rename them structurally *)
  let rec rename_indices (b : block) =
    List.map
      (fun (s : stmt) ->
        match s.kind with
        | Do d ->
          { s with
            kind = Do { d with index = rn d.index; body = rename_indices d.body } }
        | If (c, t, e) -> { s with kind = If (c, rename_indices t, rename_indices e) }
        | While (c, b') -> { s with kind = While (c, rename_indices b') }
        | _ -> s)
      b
  in
  let body = Stmt.map_block_exprs (Expr.rename rn) (rename_indices u.pu_body) in
  let t_unit =
    { u with
      pu_symtab = new_symtab;
      pu_body = body;
      pu_args = List.map rn u.pu_args }
  in
  { t_unit; t_formals = t_unit.pu_args }

(* ------------------------------------------------------------------ *)
(* Site-specific expansion                                             *)

exception Cannot_inline of string

(* linear 1-based offset expression of [subs] within [dims] *)
let linear_offset (dims : (expr * expr) list) (subs : expr list) : expr =
  let open Expr in
  let rec go dims subs stride =
    match (dims, subs) with
    | [], [] -> int 0
    | (lo, hi) :: dtl, s :: stl ->
      let here = mul (sub s lo) stride in
      let stride' = mul stride (simplify (add (sub hi lo) (int 1))) in
      simplify (add here (go dtl stl stride'))
    | _ -> raise (Cannot_inline "subscript/rank mismatch")
  in
  go dims subs (int 1)

type array_mapping =
  | Rename of string                      (** formal -> actual base name *)
  | Linearize of {
      base : string;
      base_lo : expr;        (** lower bound of the 1-D base *)
      base_offset : expr;    (** 0-based element offset of the mapping *)
      formal_dims : (expr * expr) list;
    }
      (** formal element (s1..sk) -> base(base_lo + offset + linear) *)

(* dims structurally identical (same bounds)? *)
let dims_identical (a : (expr * expr) list) (b : (expr * expr) list) =
  List.length a = List.length b
  && List.for_all2
       (fun (lo1, hi1) (lo2, hi2) -> Expr.equal lo1 lo2 && Expr.equal hi1 hi2)
       a b

(* decide how a formal array with (actual-remapped) dims [fdims] maps
   onto actual [actual] *)
let array_map (caller : Punit.t) (fdims : (expr * expr) list) (actual : expr) :
    array_mapping =
  match actual with
  | Var base -> (
    match Symtab.find_opt caller.pu_symtab base with
    | Some bsym when bsym.sym_dims <> [] ->
      if dims_identical fdims bsym.sym_dims then Rename base
      else if List.length bsym.sym_dims = 1 then
        Linearize
          { base; base_lo = fst (List.hd bsym.sym_dims);
            base_offset = Expr.int 0; formal_dims = fdims }
      else raise (Cannot_inline "non-conforming multi-dimensional actual")
    | _ -> raise (Cannot_inline "array formal bound to scalar actual"))
  | Ref (base, subs) -> (
    (* actual is an element: the formal maps at an offset *)
    match Symtab.find_opt caller.pu_symtab base with
    | Some bsym when List.length bsym.sym_dims = 1 ->
      let lo = fst (List.hd bsym.sym_dims) in
      let off = Expr.simplify (Expr.sub (List.hd subs) lo) in
      Linearize { base; base_lo = lo; base_offset = off; formal_dims = fdims }
    | _ -> raise (Cannot_inline "offset passing into multi-dimensional actual"))
  | _ -> raise (Cannot_inline "array formal bound to expression actual")

let max_label (u : Punit.t) =
  Stmt.fold
    (fun acc s ->
      let acc = match s.label with Some l -> max acc l | None -> acc in
      match s.kind with Goto l -> max acc l | _ -> acc)
    0 u.pu_body

(* label allocation must be monotonic across the sites expanded in one
   rewrite round (the caller body is only swapped in afterwards), or two
   inlined bodies would share an exit label; domain-local for the same
   reason as [temp_counter] *)
let label_floor : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

(* expand one call site; returns the replacement statements *)
let expand_site (caller : Punit.t) (tmpl : template) (args : expr list) :
    stmt list =
  let callee = Punit.copy tmpl.t_unit in
  if List.length args <> List.length tmpl.t_formals then
    raise (Cannot_inline "argument count mismatch");
  (* build the remapping: scalars first, so that array-dimension
     expressions referencing scalar formals (adjustable arrays) can be
     remapped before conformance is decided *)
  let scalar_renames = ref [] in
  let prologue = ref [] in
  let array_mappings = ref [] in
  List.iter2
    (fun formal actual ->
      let fsym = Symtab.lookup callee.pu_symtab formal in
      if fsym.sym_dims = [] then begin
        match actual with
        | Var v -> scalar_renames := (formal, v) :: !scalar_renames
        | _ ->
          (* expression actual: copy-in temporary (read-only use) *)
          let t = fresh_temp () in
          Symtab.define caller.pu_symtab
            (Symtab.mk_symbol ~typ:fsym.sym_type t);
          prologue := Stmt.assign (Var t) actual :: !prologue;
          scalar_renames := (formal, t) :: !scalar_renames
      end)
    tmpl.t_formals args;
  let remap_scalars e =
    Expr.map
      (function
        | Var v as orig -> (
          match List.assoc_opt v !scalar_renames with
          | Some n -> Var n
          | None -> orig)
        | e -> e)
      e
  in
  List.iter2
    (fun formal actual ->
      let fsym = Symtab.lookup callee.pu_symtab formal in
      if fsym.sym_dims <> [] then begin
        let fdims =
          List.map
            (fun (lo, hi) -> (remap_scalars lo, remap_scalars hi))
            fsym.sym_dims
        in
        array_mappings := (formal, array_map caller fdims actual) :: !array_mappings
      end)
    tmpl.t_formals args;
  (* move callee locals (non-formals) into the caller's symbol table *)
  Symtab.fold
    (fun name sym () ->
      if (not (List.mem name tmpl.t_formals)) && sym.sym_common = None then begin
        (* dimension expressions may reference formals: remap them *)
        let remap_expr e =
          Expr.map
            (function
              | Var v as orig -> (
                match List.assoc_opt v !scalar_renames with
                | Some n -> Var n
                | None -> orig)
              | e -> e)
            e
        in
        let dims = List.map (fun (lo, hi) -> (remap_expr lo, remap_expr hi)) sym.sym_dims in
        let param = Option.map remap_expr sym.sym_param in
        Symtab.define caller.pu_symtab { sym with sym_dims = dims; sym_param = param }
      end)
    callee.pu_symtab ();
  (* also declare commons used by the callee in the caller *)
  Symtab.fold
    (fun _ sym () ->
      if sym.sym_common <> None && not (Symtab.mem caller.pu_symtab sym.sym_name)
      then Symtab.define caller.pu_symtab sym)
    callee.pu_symtab ();
  (* rewrite the body *)
  let rewrite_one (e : expr) : expr =
    Expr.map
      (function
        | Var v as orig -> (
          match List.assoc_opt v !scalar_renames with
          | Some n -> Var n
          | None -> orig)
        | Ref (a, subs) as orig -> (
          match List.assoc_opt a !array_mappings with
          | Some (Rename base) -> Ref (base, subs)
          | Some (Linearize { base; base_lo; base_offset; formal_dims }) ->
            let lin = linear_offset formal_dims subs in
            Ref
              ( base,
                [ Expr.simplify (Expr.add base_lo (Expr.add base_offset lin)) ] )
          | None -> orig)
        | e -> e)
      e
  in
  let body = Stmt.map_block_exprs rewrite_one callee.pu_body in
  (* label renumbering *)
  let floor = Domain.DLS.get label_floor in
  let base_label = ((max (max_label caller) !floor / 1000) + 1) * 1000 in
  floor := base_label + 999;
  let relabel l = l + base_label in
  let rec renumber (b : block) =
    List.map
      (fun (s : stmt) ->
        let s = { s with label = Option.map relabel s.label } in
        match s.kind with
        | Goto l -> { s with kind = Goto (relabel l) }
        | If (c, t, e) -> { s with kind = If (c, renumber t, renumber e) }
        | Do d -> { s with kind = Do { d with body = renumber d.body } }
        | While (c, b') -> { s with kind = While (c, renumber b') }
        | _ -> s)
      b
  in
  let body = renumber body in
  (* a single trailing RETURN (the common case) is simply dropped so no
     GOTO pollutes the inlined body; interior RETURNs become GOTOs to a
     fresh trailing label *)
  let count_returns b =
    Stmt.fold
      (fun n s -> match s.kind with Return -> n + 1 | _ -> n)
      0 b
  in
  let body =
    match List.rev body with
    | ({ kind = Return; _ } as last) :: rest when count_returns [ last ] = count_returns body ->
      List.rev rest
    | _ -> body
  in
  let has_return =
    Stmt.exists (fun s -> match s.kind with Return -> true | _ -> false) body
  in
  let exit_label = base_label + 999 in
  let body =
    if not has_return then body
    else
      let rec replace (b : block) =
        List.map
          (fun (s : stmt) ->
            match s.kind with
            | Return -> { s with kind = Goto exit_label }
            | If (c, t, e) -> { s with kind = If (c, replace t, replace e) }
            | Do d -> { s with kind = Do { d with body = replace d.body } }
            | While (c, b') -> { s with kind = While (c, replace b') }
            | _ -> s)
          b
      in
      replace body @ [ Stmt.mk ~label:exit_label Continue ]
  in
  List.rev !prologue @ body

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)

let has_function_calls (p : Program.t) (u : Punit.t) =
  let found = ref false in
  Stmt.iter
    (fun s ->
      List.iter
        (fun (_, e) ->
          Expr.iter
            (function
              | Fun_call (f, _) when Program.find_unit p f <> None -> found := true
              | _ -> ())
            e)
        (Stmt.exprs_of s))
    u.pu_body;
  !found

(** Fully expand subroutine calls in [unit_name] (default: the main
    unit), repeatedly, bottoming out at recursion or non-inlinable
    sites.  Returns expansion statistics. *)
let expand_unit ?(max_rounds = 12) (p : Program.t) (u : Punit.t) : stats =
  let stats = { sites_expanded = 0; sites_skipped = 0 } in
  Domain.DLS.get label_floor := max_label u;
  let templates : (string, template) Hashtbl.t = Hashtbl.create 8 in
  let template_for name =
    match Hashtbl.find_opt templates name with
    | Some t -> Some t
    | None -> (
      match Program.find_unit p name with
      | Some callee
        when callee.pu_kind = Subroutine
             && (not (String.equal callee.pu_name u.pu_name))
             && not (has_function_calls p callee) ->
        (* only inline call-free or intrinsic-only subroutines' bodies;
           nested CALLs are fine - they get expanded in later rounds *)
        let t = make_template callee in
        Hashtbl.replace templates name t;
        Some t
      | _ -> None)
  in
  let round () =
    let changed = ref false in
    let body' =
      Stmt.rewrite
        (fun (s : stmt) ->
          match s.kind with
          | Call (name, args) -> (
            match template_for name with
            | Some tmpl -> (
              try
                let replacement = expand_site u tmpl args in
                stats.sites_expanded <- stats.sites_expanded + 1;
                changed := true;
                replacement
              with Cannot_inline _ ->
                stats.sites_skipped <- stats.sites_skipped + 1;
                [ s ])
            | None -> [ s ])
          | _ -> [ s ])
        u.pu_body
    in
    u.pu_body <- body';
    !changed
  in
  let rec go n = if n > 0 && round () then go (n - 1) in
  go max_rounds;
  Consistency.check_unit u;
  stats

(* cheap pure precheck: does [u] contain a CALL that [expand_unit]'s
   [template_for] could possibly expand?  Mirrors its conditions minus
   the template construction. *)
let has_expandable_call (p : Program.t) (u : Punit.t) =
  Stmt.exists
    (fun s ->
      match s.kind with
      | Call (name, _) -> (
        match Program.find_unit p name with
        | Some callee ->
          callee.pu_kind = Subroutine
          && (not (String.equal callee.pu_name u.pu_name))
          && not (has_function_calls p callee)
        | None -> false)
      | _ -> false)
    u.pu_body

(** Expand subroutine calls in every unit of the program (each unit is
    its own "top-level routine" in the paper's sense). *)
let run (p : Program.t) : stats =
  Domain.DLS.get temp_counter := 0;
  let total = { sites_expanded = 0; sites_skipped = 0 } in
  List.iter
    (fun u ->
      (* units with no expandable call site are left untouched — their
         invalidation version survives the pass *)
      if has_expandable_call p u then begin
        (* expansion mutates only [u] (its body, and its symtab for
           copied-in callee locals/temps): one touch covers the unit *)
        Program.touch p u;
        let s = expand_unit p u in
        total.sites_expanded <- total.sites_expanded + s.sites_expanded;
        total.sites_skipped <- total.sites_skipped + s.sites_skipped
      end)
    (Program.units p);
  total
