(** Unparser: render the IR back to compilable Fortran source.

    Polaris is a source-to-source restructurer; its output is Fortran
    annotated with parallelization directives.  By default we emit the
    analysis results as [CPOLARIS$] comment directives ahead of each
    parallel loop, in the spirit of the SGI/Cray directives Polaris
    targeted; the default output re-parses with {!Parser} (round-trip
    tested) and is the fixed point the [f77] backend pins.

    A {!mode} parameterizes the three choices the other Fortran
    backends need ([Backend.F77_omp]): the per-loop directive text, a
    declare-everything discipline (native compilers have no implicit
    knowledge of our symbol table), and a display mapping over types
    (e.g. REAL shown as DOUBLE PRECISION so gfortran's arithmetic
    matches the interpreter's doubles).  {!default_mode} reproduces the
    historical output byte-for-byte. *)

open Fir
open Ast

let buf_add = Buffer.add_string

let label_field = function
  | Some l -> Fmt.str "%-5d " l
  | None -> "      "

let directive (d : do_loop) =
  let info = d.info in
  if not info.par then None
  else
    let privates =
      match info.privates with
      | [] -> ""
      | ps -> Fmt.str " PRIVATE(%s)" (String.concat "," ps)
    in
    let lastp =
      match info.lastprivates with
      | [] -> ""
      | ps -> Fmt.str " LASTPRIVATE(%s)" (String.concat "," ps)
    in
    let reds =
      match info.reductions with
      | [] -> ""
      | rs ->
        let one r =
          let op =
            match r.red_op with
            | Rsum -> "+" | Rprod -> "*" | Rmax -> "MAX" | Rmin -> "MIN"
          in
          let form =
            match r.red_form with
            | Private_copies -> "/PRIVATE"
            | Expanded -> "/EXPANDED"
          in
          Fmt.str "%s:%s%s" op r.red_var form
        in
        Fmt.str " REDUCTION(%s)" (String.concat "," (List.map one rs))
    in
    let spec = if info.speculative then " SPECULATIVE" else "" in
    Some (Fmt.str "CPOLARIS$ DOALL%s%s%s%s" privates lastp reds spec)

(** Emission mode: how loops are annotated and symbols declared. *)
type mode = {
  m_directive : Symtab.t -> do_loop -> string list;
      (** comment/directive lines emitted before a DO statement; the
          unit's symbol table is supplied so backends can distinguish
          array from scalar names when forming clauses *)
  m_declare_all : bool;
      (** declare every symbol explicitly (native-compiler discipline)
          instead of only those the implicit rules would mistype *)
  m_display_type : base_type -> base_type;
      (** display mapping applied to declarations and FUNCTION result
          types (identity in the default mode) *)
}

let default_mode =
  { m_directive =
      (fun _ d -> match directive d with Some s -> [ s ] | None -> []);
    m_declare_all = false;
    m_display_type = (fun t -> t) }

let rec emit_block mode symtab buf indent (b : block) =
  List.iter (emit_stmt mode symtab buf indent) b

and emit_stmt mode symtab buf indent (s : stmt) =
  let pad = String.make indent ' ' in
  let line ?(label = s.label) text =
    buf_add buf (label_field label);
    buf_add buf pad;
    buf_add buf text;
    buf_add buf "\n"
  in
  match s.kind with
  | Assign (l, r) -> line (Fmt.str "%a = %a" Expr.pp l Expr.pp r)
  | If (c, t, []) ->
    line (Fmt.str "IF (%a) THEN" Expr.pp c);
    emit_block mode symtab buf (indent + 2) t;
    line ~label:None "END IF"
  | If (c, t, e) ->
    line (Fmt.str "IF (%a) THEN" Expr.pp c);
    emit_block mode symtab buf (indent + 2) t;
    line ~label:None "ELSE";
    emit_block mode symtab buf (indent + 2) e;
    line ~label:None "END IF"
  | Do d ->
    List.iter (fun dir -> buf_add buf (dir ^ "\n")) (mode.m_directive symtab d);
    let step =
      match d.step with Some e -> Fmt.str ", %s" (Expr.to_string e) | None -> ""
    in
    line (Fmt.str "DO %s = %a, %a%s" d.index Expr.pp d.init Expr.pp d.limit step);
    emit_block mode symtab buf (indent + 2) d.body;
    line ~label:None "END DO"
  | While (c, b) ->
    line (Fmt.str "DO WHILE (%a)" Expr.pp c);
    emit_block mode symtab buf (indent + 2) b;
    line ~label:None "END DO"
  | Call (n, []) -> line (Fmt.str "CALL %s" n)
  | Call (n, args) ->
    line (Fmt.str "CALL %s(%a)" n Fmt.(list ~sep:(any ", ") Expr.pp) args)
  | Goto l -> line (Fmt.str "GOTO %d" l)
  | Continue -> line "CONTINUE"
  | Return -> line "RETURN"
  | Stop -> line "STOP"
  | Print args ->
    line (Fmt.str "PRINT *, %a" Fmt.(list ~sep:(any ", ") Expr.pp) args)

let emit_declarations mode buf (u : Punit.t) =
  let pad = "      " in
  let dim_to_string (lo, hi) =
    match lo with
    | Int_lit 1 -> Expr.to_string hi
    | _ -> Fmt.str "%s:%s" (Expr.to_string lo) (Expr.to_string hi)
  in
  let entity (s : symbol) =
    if s.sym_dims = [] then s.sym_name
    else
      Fmt.str "%s(%s)" s.sym_name
        (String.concat ", " (List.map dim_to_string s.sym_dims))
  in
  (* explicit type declarations, grouped by (displayed) type.  In
     declare-all mode the symbol table is unioned with the names the
     body actually uses: implicitly typed scalars are only materialized
     in the table on first lookup, and "declare everything" must cover
     them too. *)
  let syms = Symtab.symbols u.pu_symtab in
  let syms =
    if not mode.m_declare_all then syms
    else
      let known = List.map (fun (s : symbol) -> s.sym_name) syms in
      let extra =
        Punit.used_scalars u
        |> List.filter (fun v -> not (List.mem v known))
        |> List.map (fun v -> Symtab.mk_symbol v)
      in
      List.sort
        (fun (a : symbol) b -> String.compare a.sym_name b.sym_name)
        (syms @ extra)
  in
  let groups =
    [ Integer; Real; Double_precision; Complex; Logical; Character ]
  in
  List.iter
    (fun typ ->
      let here =
        List.filter (fun s -> mode.m_display_type s.sym_type = typ) syms
      in
      (* only emit symbols that need declaring: arrays, or type differing
         from the implicit rule, or parameters (declared below) — unless
         the mode declares everything *)
      let need =
        List.filter
          (fun s ->
            s.sym_param = None
            && (mode.m_declare_all || s.sym_dims <> []
               || Symtab.implicit_type s.sym_name <> s.sym_type)
            (* declare-all mode must not redeclare the function result:
               the FUNCTION statement already carries its type *)
            && not (mode.m_declare_all && s.sym_name = u.pu_name))
          here
      in
      if need <> [] then begin
        buf_add buf pad;
        buf_add buf (base_type_to_string typ);
        buf_add buf " ";
        buf_add buf (String.concat ", " (List.map entity need));
        buf_add buf "\n"
      end)
    groups;
  (* parameters *)
  List.iter
    (fun s ->
      match s.sym_param with
      | Some v ->
        if mode.m_declare_all || Symtab.implicit_type s.sym_name <> s.sym_type
        then begin
          buf_add buf pad;
          buf_add buf
            (Fmt.str "%s %s\n"
               (base_type_to_string (mode.m_display_type s.sym_type))
               s.sym_name)
        end;
        buf_add buf pad;
        buf_add buf (Fmt.str "PARAMETER (%s = %s)\n" s.sym_name (Expr.to_string v))
      | None -> ())
    syms;
  (* common blocks, preserving alphabetical member order within a block *)
  let commons = Hashtbl.create 4 in
  List.iter
    (fun s ->
      match s.sym_common with
      | Some blk ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt commons blk) in
        Hashtbl.replace commons blk (s.sym_name :: prev)
      | None -> ())
    syms;
  Hashtbl.iter
    (fun blk members ->
      buf_add buf pad;
      buf_add buf
        (Fmt.str "COMMON /%s/ %s\n" blk (String.concat ", " (List.rev members))))
    commons

let emit_unit ?(mode = default_mode) buf (u : Punit.t) =
  let pad = "      " in
  let args =
    if u.pu_args = [] then "" else Fmt.str "(%s)" (String.concat ", " u.pu_args)
  in
  (match u.pu_kind with
  | Main -> buf_add buf (Fmt.str "%sPROGRAM %s\n" pad u.pu_name)
  | Subroutine -> buf_add buf (Fmt.str "%sSUBROUTINE %s%s\n" pad u.pu_name args)
  | Function typ ->
    buf_add buf
      (Fmt.str "%s%s FUNCTION %s%s\n" pad
         (base_type_to_string (mode.m_display_type typ))
         u.pu_name args));
  emit_declarations mode buf u;
  emit_block mode u.pu_symtab buf 0 u.pu_body;
  buf_add buf (pad ^ "END\n")

(** Render a whole program as Fortran source text. *)
let program_to_string ?(mode = default_mode) (p : Program.t) =
  let buf = Buffer.create 4096 in
  List.iteri
    (fun i u ->
      if i > 0 then buf_add buf "\n";
      emit_unit ~mode buf u)
    (Program.units p);
  Buffer.contents buf

let unit_to_string ?(mode = default_mode) (u : Punit.t) =
  let buf = Buffer.create 1024 in
  emit_unit ~mode buf u;
  Buffer.contents buf
