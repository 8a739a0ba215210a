(** Program units: main programs, subroutines, functions. *)

open Ast

type t = {
  pu_name : string;
  pu_kind : unit_kind;
  pu_args : string list;
  pu_symtab : Symtab.t;
  mutable pu_body : block;
  mutable pu_version : int;
      (** per-unit invalidation counter: bumped by {!invalidate}
          (i.e. by [Program.touch] and {!restore}) every time a pass
          announces it is about to mutate this unit.  No cache reads
          it; it is the observable of the touch contract the pass
          guard rests on. *)
}

let create ?(kind = Main) ?(args = []) name =
  { pu_name = Symtab.norm name; pu_kind = kind;
    pu_args = List.map Symtab.norm args;
    pu_symtab = Symtab.create (); pu_body = [];
    pu_version = 0 }

let is_function u = match u.pu_kind with Function _ -> true | _ -> false

(** [v]'s value outlives an activation of [u]: [v] is a dummy, a
    COMMON member, or the result variable of a FUNCTION unit. *)
let escapes u v =
  List.mem v u.pu_args
  || (is_function u && String.equal v u.pu_name)
  ||
  match Symtab.find_opt u.pu_symtab v with
  | Some sym -> sym.sym_common <> None
  | None -> false

(** Invalidation epoch of the unit (see {!t.pu_version}). *)
let version u = u.pu_version

(** Announce that the unit is about to be mutated: bump the version.
    Called by [Program.touch] — passes never call this directly. *)
let invalidate u = u.pu_version <- u.pu_version + 1

(** Deep copy (fresh statement ids, fresh symbol table).  The copy
    inherits the version; the copies' versions advance independently
    from here on. *)
let copy u =
  { u with pu_symtab = Symtab.copy u.pu_symtab; pu_body = Stmt.copy_block u.pu_body }

(** In-place rollback of one unit from a {!copy} taken earlier: [u]
    keeps its identity, body and symbol table are replaced by fresh deep
    copies of the snapshot (fresh statement ids, so id-uniqueness holds
    even if the aborted pass leaked statements elsewhere).  Counts as a
    mutation: the version is bumped. *)
let restore ~(from : t) (u : t) =
  let fresh = copy from in
  u.pu_body <- fresh.pu_body;
  Symtab.restore ~from:fresh.pu_symtab u.pu_symtab;
  invalidate u

(** All loops of the unit, outer listed before inner. *)
let loops u = Stmt.loops u.pu_body

(** Every name the body references as a scalar variable — reads,
    writes and DO indices.  The parser only registers {e declared}
    names in the symbol table; implicitly typed scalars materialize on
    first {!Symtab.lookup}, so a backend that must declare every
    symbol (a native compiler has no implicit-materialization step for
    C, and declare-all Fortran promises completeness) unions this set
    with {!Symtab.symbols}. *)
let used_scalars (u : t) : string list =
  let acc = ref [] in
  let expr e = Expr.iter (function Var v -> acc := v :: !acc | _ -> ()) e in
  Stmt.iter
    (fun (s : stmt) ->
      match s.kind with
      | Assign (l, r) ->
        expr l;
        expr r
      | If (c, _, _) | While (c, _) -> expr c
      | Do d ->
        acc := d.index :: !acc;
        expr d.init;
        expr d.limit;
        Option.iter expr d.step
      | Call (_, args) | Print args -> List.iter expr args
      | Goto _ | Continue | Return | Stop -> ())
    u.pu_body;
  List.sort_uniq String.compare !acc

(** Resolve the PARAMETER constants of the unit as an expression
    substitution (transitively resolved).  Each value is the one the
    declared type stores ({!Sclass.stored_as}): a literal of the other
    numeric class is converted, and a value the static classes cannot
    show to be stored unchanged is left out, so its uses keep reading
    the PARAMETER. *)
let parameter_bindings u =
  let var = Sclass.of_symtab u.pu_symtab in
  let rec stored seen name =
    match Symtab.find_opt u.pu_symtab name with
    | Some { sym_param = Some value; sym_type; _ } when not (List.mem name seen) ->
      Sclass.stored_as var (Sclass.of_type sym_type)
        (Expr.simplify (resolve (name :: seen) value))
    | _ -> None
  and resolve seen e =
    Expr.map
      (function
        | Var v as x -> Option.value (stored seen v) ~default:x
        | x -> x)
      e
  in
  Symtab.fold
    (fun name (sym : symbol) acc ->
      match sym.sym_param with
      | Some _ -> (
        match stored [] name with Some e -> (name, e) :: acc | None -> acc)
      | None -> acc)
    u.pu_symtab []

(* ------------------------------------------------------------------ *)
(* Content fingerprint                                                 *)

(* Canonical serialization of everything a unit-level analysis may read
   — symbol table (sorted), arguments, kind, and the full body — while
   deliberately excluding statement ids and loop_info annotations.  Two
   units with equal fingerprints are indistinguishable to any analysis
   that ignores ids and decisions, so caches may key on the fingerprint
   and get hits across passes, pipeline generations, and even separate
   compilations of the same source.  Strings are length-prefixed and
   every node carries a distinct tag, so the encoding is injective. *)

let fp_string buf s =
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let fp_unop = function Neg -> '~' | Not -> '!'

let fp_binop = function
  | Add -> '+' | Sub -> '-' | Mul -> '*' | Div -> '/' | Pow -> '^'
  | And -> '&' | Or -> '|'
  | Eq -> 'e' | Ne -> 'n' | Lt -> 'l' | Le -> 'm' | Gt -> 'g' | Ge -> 'h'

let rec fp_expr buf (e : expr) =
  match e with
  | Int_lit n ->
    Buffer.add_char buf 'i';
    Buffer.add_string buf (string_of_int n)
  | Real_lit x ->
    Buffer.add_char buf 'r';
    Buffer.add_string buf (Int64.to_string (Int64.bits_of_float x))
  | Logical_lit b -> Buffer.add_char buf (if b then 'T' else 'F')
  | Char_lit s ->
    Buffer.add_char buf 'c';
    fp_string buf s
  | Var v ->
    Buffer.add_char buf 'v';
    fp_string buf v
  | Ref (a, subs) ->
    Buffer.add_char buf 'R';
    fp_string buf a;
    fp_exprs buf subs
  | Fun_call (f, args) ->
    Buffer.add_char buf 'C';
    fp_string buf f;
    fp_exprs buf args
  | Unary (op, a) ->
    Buffer.add_char buf 'u';
    Buffer.add_char buf (fp_unop op);
    fp_expr buf a
  | Binary (op, a, b) ->
    Buffer.add_char buf 'b';
    Buffer.add_char buf (fp_binop op);
    fp_expr buf a;
    fp_expr buf b
  | Wildcard i ->
    Buffer.add_char buf 'w';
    Buffer.add_string buf (string_of_int i)

and fp_exprs buf es =
  Buffer.add_char buf '(';
  List.iter (fp_expr buf) es;
  Buffer.add_char buf ')'

let rec fp_stmt buf (s : stmt) =
  (match s.label with
  | Some l ->
    Buffer.add_char buf 'L';
    Buffer.add_string buf (string_of_int l)
  | None -> ());
  match s.kind with
  | Assign (l, r) ->
    Buffer.add_char buf '=';
    fp_expr buf l;
    fp_expr buf r
  | If (c, t, e) ->
    Buffer.add_char buf '?';
    fp_expr buf c;
    fp_block buf t;
    fp_block buf e
  | Do d ->
    Buffer.add_char buf 'D';
    fp_string buf d.index;
    fp_expr buf d.init;
    fp_expr buf d.limit;
    (match d.step with
    | Some e ->
      Buffer.add_char buf 's';
      fp_expr buf e
    | None -> Buffer.add_char buf '1');
    fp_block buf d.body
  | While (c, b) ->
    Buffer.add_char buf 'W';
    fp_expr buf c;
    fp_block buf b
  | Call (n, args) ->
    Buffer.add_char buf '!';
    fp_string buf n;
    fp_exprs buf args
  | Goto l ->
    Buffer.add_char buf 'G';
    Buffer.add_string buf (string_of_int l)
  | Continue -> Buffer.add_char buf '.'
  | Return -> Buffer.add_char buf '<'
  | Stop -> Buffer.add_char buf 'S'
  | Print args ->
    Buffer.add_char buf 'P';
    fp_exprs buf args

and fp_block buf (b : block) =
  Buffer.add_char buf '[';
  List.iter (fp_stmt buf) b;
  Buffer.add_char buf ']'

let fp_symbol buf (s : symbol) =
  fp_string buf s.sym_name;
  Buffer.add_string buf (base_type_to_string s.sym_type);
  List.iter
    (fun (lo, hi) ->
      Buffer.add_char buf 'd';
      fp_expr buf lo;
      fp_expr buf hi)
    s.sym_dims;
  (match s.sym_param with
  | Some e ->
    Buffer.add_char buf 'p';
    fp_expr buf e
  | None -> ());
  (match s.sym_common with
  | Some c ->
    Buffer.add_char buf 'k';
    fp_string buf c
  | None -> ());
  match s.sym_arg_pos with
  | Some i ->
    Buffer.add_char buf 'a';
    Buffer.add_string buf (string_of_int i)
  | None -> ()

(** Canonical content fingerprint of a single block (same encoding as
    {!fingerprint}, ids and loop decisions excluded).  Passes use it to
    detect that a rewritten body is content-identical to the original —
    in which case they skip the mutation (and the [Program.touch]) and
    every analysis of the unit survives. *)
let block_fingerprint (b : block) : string =
  let buf = Buffer.create 512 in
  fp_block buf b;
  Buffer.contents buf

(** Canonical content fingerprint of the unit: name, kind, arguments,
    sorted symbol table and body — statement ids and loop decisions
    excluded (see above).  Not memoized: it costs one walk of the unit,
    and its one caller, the [range_prop.env_at] cache, asks once per
    unit with loops. *)
let fingerprint (u : t) : string =
  let buf = Buffer.create 1024 in
  fp_string buf u.pu_name;
  Buffer.add_string buf
    (match u.pu_kind with
    | Main -> "M"
    | Subroutine -> "S"
    | Function ty -> "F" ^ base_type_to_string ty);
  List.iter (fp_string buf) u.pu_args;
  List.iter (fp_symbol buf) (Symtab.symbols u.pu_symtab);
  fp_block buf u.pu_body;
  Buffer.contents buf

let pp ppf u =
  let kw =
    match u.pu_kind with
    | Main -> "PROGRAM"
    | Subroutine -> "SUBROUTINE"
    | Function _ -> "FUNCTION"
  in
  let args =
    if u.pu_args = [] then ""
    else Fmt.str "(%s)" (String.concat ", " u.pu_args)
  in
  Fmt.pf ppf "%s %s%s@.%a" kw u.pu_name args (Stmt.pp_block ~indent:2) u.pu_body;
  Fmt.pf ppf "END@."
