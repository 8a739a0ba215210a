(** Array access extraction.

    Collects every array element read and write in a loop body, with
    subscripts lifted to polynomials, conditional-context and statement
    provenance.  The dependence tests consume pairs of these. *)

open Fir
open Ast

type kind = Read | Write

type t = {
  array : string;
  kind : kind;
  subs : Symbolic.Poly.t list;   (** one polynomial per dimension *)
  subs_exprs : expr list;        (** original subscript expressions *)
  conditional : bool;            (** under an IF within the loop body *)
  sid : int;                     (** statement of the access *)
  reduction_flag : bool;         (** part of a flagged reduction statement *)
}

let pp ppf a =
  Fmt.pf ppf "%s %s(%a)"
    (match a.kind with Read -> "read" | Write -> "write")
    a.array
    Fmt.(list ~sep:(any ", ") Symbolic.Poly.pp)
    a.subs

(* collect accesses of one expression (reads only) *)
let rec of_expr ~conditional ~sid (e : expr) acc =
  match e with
  | Ref (v, subs) ->
    let acc =
      { array = v; kind = Read; subs = List.map Symbolic.Poly.of_expr subs;
        subs_exprs = subs; conditional; sid; reduction_flag = false }
      :: acc
    in
    List.fold_left (fun acc s -> of_expr ~conditional ~sid s acc) acc subs
  | _ ->
    List.fold_left (fun acc s -> of_expr ~conditional ~sid s acc) acc
      (Expr.children e)

(** All array accesses in a block.  [conditional] marks accesses under
    an IF (relative to the block entry); calls are *not* expanded here —
    the inliner runs first, and any remaining call makes the caller
    conservative (see {!calls_in}). *)
let of_block (b : block) : t list =
  let acc = ref [] in
  let rec go ~conditional (b : block) =
    List.iter
      (fun (s : stmt) ->
        match s.kind with
        | Assign (lhs, rhs) ->
          (match lhs with
          | Ref (v, subs) ->
            acc :=
              { array = v; kind = Write;
                subs = List.map Symbolic.Poly.of_expr subs; subs_exprs = subs;
                conditional; sid = s.sid; reduction_flag = false }
              :: !acc;
            (* subscript expressions are reads *)
            List.iter (fun e -> acc := of_expr ~conditional ~sid:s.sid e !acc) subs
          | _ -> ());
          acc := of_expr ~conditional ~sid:s.sid rhs !acc
        | If (c, t, e) ->
          acc := of_expr ~conditional ~sid:s.sid c !acc;
          go ~conditional:true t;
          go ~conditional:true e
        | Do d ->
          acc := of_expr ~conditional ~sid:s.sid d.init !acc;
          acc := of_expr ~conditional ~sid:s.sid d.limit !acc;
          (match d.step with
          | Some e -> acc := of_expr ~conditional ~sid:s.sid e !acc
          | None -> ());
          go ~conditional d.body
        | While (c, body) ->
          acc := of_expr ~conditional ~sid:s.sid c !acc;
          go ~conditional:true body
        | Call (_, args) | Print args ->
          List.iter (fun e -> acc := of_expr ~conditional ~sid:s.sid e !acc) args
        | Goto _ | Continue | Return | Stop -> ())
      b
  in
  go ~conditional:false b;
  List.rev !acc

(** Accesses grouped by array name. *)
let by_array (accs : t list) : (string * t list) list =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun a ->
      if not (Hashtbl.mem tbl a.array) then order := a.array :: !order;
      Hashtbl.replace tbl a.array
        (a :: Option.value ~default:[] (Hashtbl.find_opt tbl a.array)))
    accs;
  List.rev_map (fun name -> (name, List.rev (Hashtbl.find tbl name))) !order

(** Names of subroutines/functions still called inside the block
    (after inlining these force conservative treatment). *)
let calls_in (b : block) ~(is_intrinsic : string -> bool) : string list =
  let acc = ref [] in
  Stmt.iter
    (fun s ->
      (match s.kind with
      | Call (n, _) -> acc := n :: !acc
      | _ -> ());
      List.iter
        (fun (_, e) ->
          Expr.iter
            (function
              | Fun_call (f, _) when not (is_intrinsic f) -> acc := f :: !acc
              | _ -> ())
            e)
        (Stmt.exprs_of s))
    b;
  List.sort_uniq String.compare !acc

(** Standard Fortran intrinsics known to be pure. *)
let intrinsics =
  [ "ABS"; "IABS"; "DABS"; "MOD"; "AMOD"; "DMOD"; "MAX"; "MAX0"; "AMAX1";
    "DMAX1"; "MIN"; "MIN0"; "AMIN1"; "DMIN1"; "SQRT"; "DSQRT"; "SIN"; "DSIN";
    "COS"; "DCOS"; "TAN"; "DTAN"; "ATAN"; "DATAN"; "EXP"; "DEXP"; "LOG";
    "ALOG"; "DLOG"; "INT"; "IFIX"; "IDINT"; "NINT"; "IDNINT"; "REAL";
    "FLOAT"; "DBLE"; "SNGL"; "SIGN"; "ISIGN"; "DSIGN" ]

let is_intrinsic n = List.mem (String.uppercase_ascii n) intrinsics
