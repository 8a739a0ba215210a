(** Symbol tables for program units.

    Fortran implicit typing is honoured: an undeclared identifier whose
    name starts with I..N is INTEGER, anything else REAL, matching the
    default rules the Perfect codes rely on. *)

open Ast

type t = (string, symbol) Hashtbl.t

let create () : t = Hashtbl.create 32

let norm = String.uppercase_ascii

(** Type given to undeclared identifiers by Fortran implicit rules. *)
let implicit_type name =
  let name = norm name in
  if String.length name = 0 then Real
  else match name.[0] with 'I' .. 'N' -> Integer | _ -> Real

let mk_symbol ?(dims = []) ?param ?common ?arg_pos ?typ name =
  let name = norm name in
  let sym_type = match typ with Some t -> t | None -> implicit_type name in
  { sym_name = name; sym_type; sym_dims = dims; sym_param = param;
    sym_common = common; sym_arg_pos = arg_pos }

(** Insert or replace the definition of a symbol. *)
let define (t : t) (s : symbol) = Hashtbl.replace t s.sym_name s

let find_opt (t : t) name = Hashtbl.find_opt t (norm name)

(** Look up [name], materializing an implicitly typed scalar if absent.
    This mirrors Fortran's implicit declaration semantics. *)
let lookup (t : t) name =
  let name = norm name in
  match Hashtbl.find_opt t name with
  | Some s -> s
  | None ->
    let s = mk_symbol name in
    Hashtbl.replace t name s;
    s

let mem (t : t) name = Hashtbl.mem t (norm name)
let remove (t : t) name = Hashtbl.remove t (norm name)

let is_array (t : t) name =
  match find_opt t name with Some s -> s.sym_dims <> [] | None -> false

let is_parameter (t : t) name =
  match find_opt t name with Some s -> Option.is_some s.sym_param | None -> false

(** Declared element type of [name] (implicit rules if undeclared). *)
let type_of (t : t) name =
  match find_opt t name with Some s -> s.sym_type | None -> implicit_type name

let fold f (t : t) acc = Hashtbl.fold f t acc

(** The COMMON members. *)
let commons (t : t) =
  fold (fun n s acc -> if s.sym_common <> None then n :: acc else acc) t []

let symbols (t : t) =
  fold (fun _ s acc -> s :: acc) t []
  |> List.sort (fun a b -> String.compare a.sym_name b.sym_name)

let copy (t : t) : t = Hashtbl.copy t

(** In-place restore of [t] to the contents of [from] (typically an
    earlier {!copy}); existing references to [t] see the rolled-back
    state.  The fail-safe pipeline uses this to undo a pass that
    corrupted the symbol table. *)
let restore ~(from : t) (t : t) =
  Hashtbl.reset t;
  Hashtbl.iter (fun k v -> Hashtbl.replace t k v) from

(** Number of elements of array symbol [s] if all dims are constant. *)
let const_size (s : symbol) =
  let dim_size (lo, hi) =
    match (Expr.int_val lo, Expr.int_val hi) with
    | Some l, Some h when h >= l -> Some (h - l + 1)
    | _ -> None
  in
  List.fold_left
    (fun acc d ->
      match (acc, dim_size d) with Some a, Some n -> Some (a * n) | _ -> None)
    (Some 1) s.sym_dims
