(** Whole Fortran programs: a collection of program units.

    Mirrors the Polaris [Program] class — a container of [ProgramUnit]s
    with lookup, merge and display operations. *)

type t = {
  units : Punit.t list;
  mutable on_touch : (Punit.t -> unit) option;
      (** copy-on-write seam: called by passes just before they mutate a
          unit (body or symbol table), so a guard can snapshot only what
          actually changes.  [None] outside a guarded pass. *)
}

let create units = { units; on_touch = None }

let units t = t.units

(** Install (or clear) the copy-on-write hook; see {!touch}. *)
let set_touch_hook t hook = t.on_touch <- hook

(** [touch t u]: every pass must call this before mutating unit [u] of
    [t] (rewriting [pu_body], defining symbols, ...).  Always bumps the
    unit's invalidation version, then notifies the guard hook if one is
    installed, so the guard snapshots and re-checks exactly the units
    a pass rewrote. *)
let touch t u =
  Punit.invalidate u;
  match t.on_touch with Some f -> f u | None -> ()

(** The unique main program unit.
    @raise Not_found if the program has no main unit. *)
let main t =
  match List.find_opt (fun u -> u.Punit.pu_kind = Ast.Main) t.units with
  | Some u -> u
  | None -> raise Not_found

(** Find a unit (subroutine/function/main) by name, case-insensitive. *)
let find_unit t name =
  let name = Symtab.norm name in
  List.find_opt (fun u -> String.equal u.Punit.pu_name name) t.units

(** The names of the FUNCTION units. *)
let functions t =
  List.filter_map
    (fun (u : Punit.t) -> if Punit.is_function u then Some u.pu_name else None)
    t.units

(** Merge two programs; unit names must not collide.
    @raise Invalid_argument on a duplicate unit name. *)
let merge a b =
  List.iter
    (fun u ->
      if find_unit a u.Punit.pu_name <> None then
        invalid_arg ("Program.merge: duplicate unit " ^ u.Punit.pu_name))
    b.units;
  create (a.units @ b.units)

let copy t = create (List.map Punit.copy t.units)

let pp ppf t = List.iter (fun u -> Fmt.pf ppf "%a@." Punit.pp u) t.units
let to_string t = Fmt.str "%a" pp t
