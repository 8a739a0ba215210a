(** Recursive-descent parser for the Fortran 77 subset.

    Fortran has no reserved words, so a line is first tested for the
    assignment shape [ID [\(...\)] = ...] and only then dispatched on its
    leading keyword.  Array reference vs. function call is disambiguated
    with the symbol table (declarations precede executable statements).

    Restrictions vs. full Fortran 77 (documented in DESIGN.md): no
    arithmetic IF, no shared DO terminators, no EQUIVALENCE, no I/O
    beyond [PRINT *]/[WRITE(*,*)], no statement functions. *)

open Fir
open Token

exception Error of string

let fail lineno fmt =
  Fmt.kstr (fun s -> raise (Error (Fmt.str "line %d: %s" lineno s))) fmt

(* ------------------------------------------------------------------ *)
(* Expression parsing over a token cursor                              *)

type tcur = { mutable toks : t list; lineno : int }

let peek c = match c.toks with [] -> None | t :: _ -> Some t
let advance c = match c.toks with [] -> () | _ :: tl -> c.toks <- tl

let expect c t =
  match c.toks with
  | x :: tl when x = t -> c.toks <- tl
  | x :: _ -> fail c.lineno "expected %s, found %s" (to_string t) (to_string x)
  | [] -> fail c.lineno "expected %s, found end of line" (to_string t)

let eat_id c =
  match c.toks with
  | ID s :: tl -> c.toks <- tl; s
  | x :: _ -> fail c.lineno "expected identifier, found %s" (to_string x)
  | [] -> fail c.lineno "expected identifier, found end of line"

let rec parse_expr c = parse_or c

and parse_or c =
  let rec loop acc =
    match peek c with
    | Some OR -> advance c; loop (Ast.Binary (Or, acc, parse_and c))
    | _ -> acc
  in
  loop (parse_and c)

and parse_and c =
  let rec loop acc =
    match peek c with
    | Some AND -> advance c; loop (Ast.Binary (And, acc, parse_not c))
    | _ -> acc
  in
  loop (parse_not c)

and parse_not c =
  match peek c with
  | Some NOT -> advance c; Ast.Unary (Not, parse_not c)
  | _ -> parse_rel c

and parse_rel c =
  let lhs = parse_arith c in
  let op =
    match peek c with
    | Some LT -> Some Ast.Lt | Some LE -> Some Ast.Le
    | Some GT -> Some Ast.Gt | Some GE -> Some Ast.Ge
    | Some EQ -> Some Ast.Eq | Some NE -> Some Ast.Ne
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op -> advance c; Ast.Binary (op, lhs, parse_arith c)

and parse_arith c =
  let first =
    match peek c with
    | Some MINUS -> advance c; Ast.Unary (Neg, parse_term c)
    | Some PLUS -> advance c; parse_term c
    | _ -> parse_term c
  in
  let rec loop acc =
    match peek c with
    | Some PLUS -> advance c; loop (Ast.Binary (Add, acc, parse_term c))
    | Some MINUS -> advance c; loop (Ast.Binary (Sub, acc, parse_term c))
    | _ -> acc
  in
  loop first

and parse_term c =
  let rec loop acc =
    match peek c with
    | Some STAR -> advance c; loop (Ast.Binary (Mul, acc, parse_power c))
    | Some SLASH -> advance c; loop (Ast.Binary (Div, acc, parse_power c))
    | _ -> acc
  in
  loop (parse_power c)

and parse_power c =
  let base = parse_primary c in
  match peek c with
  | Some POW ->
    advance c;
    (* right-associative; a unary minus is allowed after ** in practice *)
    let exp =
      match peek c with
      | Some MINUS -> advance c; Ast.Unary (Neg, parse_power c)
      | _ -> parse_power c
    in
    Ast.Binary (Pow, base, exp)
  | _ -> base

and parse_primary c =
  match c.toks with
  | INT n :: tl -> c.toks <- tl; Ast.Int_lit n
  | FLOAT x :: tl -> c.toks <- tl; Ast.Real_lit x
  | STR s :: tl -> c.toks <- tl; Ast.Char_lit s
  | TRUE :: tl -> c.toks <- tl; Ast.Logical_lit true
  | FALSE :: tl -> c.toks <- tl; Ast.Logical_lit false
  | LPAR :: tl ->
    c.toks <- tl;
    let e = parse_expr c in
    expect c RPAR;
    e
  | ID v :: LPAR :: tl ->
    c.toks <- tl;
    let args = parse_args c in
    expect c RPAR;
    (* resolved to Ref or Fun_call by the caller via [resolve] below *)
    Ast.Fun_call (v, args)
  | ID v :: tl -> c.toks <- tl; Ast.Var v
  | t :: _ -> fail c.lineno "unexpected token %s in expression" (to_string t)
  | [] -> fail c.lineno "unexpected end of line in expression"

and parse_args c =
  match peek c with
  | Some RPAR -> []
  | _ ->
    let rec loop acc =
      let e = parse_expr c in
      match peek c with
      | Some COMMA -> advance c; loop (e :: acc)
      | _ -> List.rev (e :: acc)
    in
    loop []

(* ------------------------------------------------------------------ *)
(* Name resolution: array reference vs. function call                  *)

let resolve_refs symtab e =
  Expr.map
    (function
      | Ast.Fun_call (v, args) when Symtab.is_array symtab v -> Ast.Ref (v, args)
      | e -> e)
    e

(* ------------------------------------------------------------------ *)
(* Line-level parsing                                                  *)

type cursor = { mutable pos : int; lines : line array }

let peek_line c = if c.pos < Array.length c.lines then Some c.lines.(c.pos) else None

let next_line c =
  match peek_line c with
  | Some l -> c.pos <- c.pos + 1; l
  | None -> raise (Error "unexpected end of file")

let line_starts_with (l : line) kws =
  let rec go toks kws =
    match (toks, kws) with
    | _, [] -> true
    | ID s :: tl, k :: ks when String.equal s k -> go tl ks
    | _ -> false
  in
  go l.toks kws

(* assignment shape: ID [balanced-paren group] EQUALS ... *)
let is_assignment (l : line) =
  match l.toks with
  | ID _ :: EQUALS :: _ -> true
  | ID _ :: LPAR :: rest ->
    let rec skip depth = function
      | [] -> false
      | LPAR :: tl -> skip (depth + 1) tl
      | RPAR :: tl -> if depth = 1 then (match tl with EQUALS :: _ -> true | _ -> false)
                      else skip (depth - 1) tl
      | _ :: tl -> skip depth tl
    in
    skip 1 rest
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)

let base_type_of_kw = function
  | "INTEGER" -> Some Ast.Integer
  | "REAL" -> Some Ast.Real
  | "LOGICAL" -> Some Ast.Logical
  | "COMPLEX" -> Some Ast.Complex
  | "CHARACTER" -> Some Ast.Character
  | _ -> None

let parse_dims tc =
  (* after LPAR: dim [, dim]* RPAR with dim := expr | expr ':' expr | '*' *)
  let parse_dim () =
    match peek tc with
    | Some STAR -> advance tc; (Ast.Int_lit 1, Ast.Var "*")
    | _ ->
      let e1 = parse_expr tc in
      (match peek tc with
      | Some COLON ->
        advance tc;
        (match peek tc with
        | Some STAR -> advance tc; (e1, Ast.Var "*")
        | _ -> (e1, parse_expr tc))
      | _ -> (Ast.Int_lit 1, e1))
  in
  let rec loop acc =
    let d = parse_dim () in
    match peek tc with
    | Some COMMA -> advance tc; loop (d :: acc)
    | _ -> List.rev (d :: acc)
  in
  let dims = loop [] in
  expect tc RPAR;
  dims

let parse_decl_entities (u : Punit.t) typ tc =
  let rec loop () =
    let name = eat_id tc in
    let dims =
      match peek tc with
      | Some LPAR -> advance tc; parse_dims tc
      | _ -> []
    in
    let prev = Symtab.find_opt u.pu_symtab name in
    let dims =
      match (dims, prev) with [], Some p -> p.sym_dims | _ -> dims
    in
    let arg_pos = Util.Listx.index_of (String.equal name) u.pu_args in
    let common = match prev with Some p -> p.sym_common | None -> None in
    let param = match prev with Some p -> p.sym_param | None -> None in
    let typ' = match typ with Some t -> Some t | None -> Option.map (fun p -> p.Ast.sym_type) prev in
    Symtab.define u.pu_symtab
      (Symtab.mk_symbol ~dims ?param ?common ?arg_pos ?typ:typ' name);
    match peek tc with
    | Some COMMA -> advance tc; loop ()
    | _ -> ()
  in
  loop ()

(* Is this line a declaration?  Returns true if consumed. *)
let try_declaration (u : Punit.t) (l : line) : bool =
  let tc = { toks = l.toks; lineno = l.lineno } in
  match l.toks with
  | ID "IMPLICIT" :: _ | ID "EXTERNAL" :: _ | ID "INTRINSIC" :: _
  | ID "SAVE" :: _ | ID "DATA" :: _ -> true
  | ID "DOUBLE" :: ID "PRECISION" :: _ ->
    advance tc; advance tc;
    parse_decl_entities u (Some Ast.Double_precision) tc;
    true
  | ID "DIMENSION" :: _ ->
    advance tc;
    parse_decl_entities u None tc;
    true
  | ID "PARAMETER" :: LPAR :: _ ->
    advance tc; advance tc;
    let rec loop () =
      let name = eat_id tc in
      expect tc EQUALS;
      let value = parse_expr tc in
      let value = resolve_refs u.pu_symtab value in
      let prev = Symtab.find_opt u.pu_symtab name in
      let typ = Option.map (fun p -> p.Ast.sym_type) prev in
      Symtab.define u.pu_symtab (Symtab.mk_symbol ?typ ~param:value name);
      match peek tc with
      | Some COMMA -> advance tc; loop ()
      | _ -> ()
    in
    loop ();
    expect tc RPAR;
    true
  | ID "COMMON" :: SLASH :: _ ->
    advance tc;
    expect tc SLASH;
    let rec blocks () =
      let blk = eat_id tc in
      expect tc SLASH;
      let rec names () =
        let name = eat_id tc in
        let dims =
          match peek tc with
          | Some LPAR -> advance tc; parse_dims tc
          | _ -> []
        in
        let prev = Symtab.find_opt u.pu_symtab name in
        let dims = match (dims, prev) with [], Some p -> p.sym_dims | _ -> dims in
        let typ = Option.map (fun p -> p.Ast.sym_type) prev in
        Symtab.define u.pu_symtab
          (Symtab.mk_symbol ~dims ~common:blk ?typ name);
        match peek tc with
        | Some COMMA -> advance tc; names ()
        | _ -> ()
      in
      names ();
      match peek tc with
      | Some SLASH -> expect tc SLASH; blocks ()
      | _ -> ()
    in
    blocks ();
    true
  | ID kw :: rest -> (
    match base_type_of_kw kw with
    | Some typ when rest <> [] && not (is_assignment l) ->
      advance tc;
      (* CHARACTER*8 style length: skip the length part *)
      (match peek tc with
      | Some STAR -> advance tc; (match peek tc with Some (INT _) -> advance tc | _ -> ())
      | _ -> ());
      parse_decl_entities u (Some typ) tc;
      true
    | _ -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)

let rec parse_stmt (u : Punit.t) (c : cursor) (l : line) : Ast.stmt =
  let tc = { toks = l.toks; lineno = l.lineno } in
  let label = l.label in
  let resolve e = resolve_refs u.pu_symtab e in
  if is_assignment l then begin
    let lhs = parse_primary tc in
    expect tc EQUALS;
    let rhs = parse_expr tc in
    let lhs =
      match resolve lhs with
      | Ast.Fun_call (v, args) -> Ast.Ref (v, args) (* array not declared: implicit *)
      | e -> e
    in
    Stmt.mk ?label (Assign (lhs, resolve rhs))
  end
  else
    match l.toks with
    | ID "DO" :: ID "WHILE" :: _ ->
      advance tc; advance tc;
      expect tc LPAR;
      let cond = parse_expr tc in
      expect tc RPAR;
      let body = parse_block u c ~stop:is_enddo in
      ignore (next_line c) (* the END DO *);
      Stmt.mk ?label (While (resolve cond, body))
    | ID "DO" :: INT lbl :: _ ->
      advance tc; advance tc;
      parse_do_header u tc ?label ~lbl_stop:(Some lbl) c
    | ID "DO" :: ID _ :: _ ->
      advance tc;
      parse_do_header u tc ?label ~lbl_stop:None c
    | ID "IF" :: LPAR :: _ ->
      advance tc;
      expect tc LPAR;
      let cond = parse_expr tc in
      expect tc RPAR;
      (match peek tc with
      | Some (ID "THEN") ->
        let then_, else_ = parse_if_branches u c in
        Stmt.mk ?label (If (resolve cond, then_, else_))
      | _ ->
        (* one-line IF: the remainder is a simple statement *)
        let inner =
          parse_stmt u c { lineno = l.lineno; label = None; toks = tc.toks }
        in
        Stmt.mk ?label (If (resolve cond, [ inner ], [])))
    | ID "GOTO" :: INT n :: _ -> Stmt.mk ?label (Goto n)
    | ID "GO" :: ID "TO" :: INT n :: _ -> Stmt.mk ?label (Goto n)
    | ID "CALL" :: _ ->
      advance tc;
      let name = eat_id tc in
      let args =
        match peek tc with
        | Some LPAR ->
          advance tc;
          let args = parse_args tc in
          expect tc RPAR;
          args
        | _ -> []
      in
      Stmt.mk ?label (Call (name, List.map resolve args))
    | ID "RETURN" :: _ -> Stmt.mk ?label Return
    | ID "STOP" :: _ -> Stmt.mk ?label Stop
    | ID "CONTINUE" :: _ -> Stmt.mk ?label Continue
    | ID "PRINT" :: STAR :: rest ->
      let rest = match rest with COMMA :: tl -> tl | tl -> tl in
      let tc = { toks = rest; lineno = l.lineno } in
      let args = if tc.toks = [] then [] else parse_print_list tc in
      Stmt.mk ?label (Print (List.map resolve args))
    | ID "WRITE" :: LPAR :: STAR :: COMMA :: STAR :: RPAR :: rest ->
      let tc = { toks = rest; lineno = l.lineno } in
      let args = if tc.toks = [] then [] else parse_print_list tc in
      Stmt.mk ?label (Print (List.map resolve args))
    | t :: _ -> fail l.lineno "cannot parse statement starting with %s" (to_string t)
    | [] -> fail l.lineno "empty statement"

and parse_print_list tc =
  let rec loop acc =
    let e = parse_expr tc in
    match peek tc with
    | Some COMMA -> advance tc; loop (e :: acc)
    | _ -> List.rev (e :: acc)
  in
  loop []

and parse_do_header u tc ?label ~lbl_stop c =
  let resolve e = resolve_refs u.pu_symtab e in
  let index = eat_id tc in
  expect tc EQUALS;
  let init = parse_expr tc in
  expect tc COMMA;
  let limit = parse_expr tc in
  let step =
    match peek tc with
    | Some COMMA -> advance tc; Some (resolve (parse_expr tc))
    | _ -> None
  in
  let body =
    match lbl_stop with
    | Some lbl ->
      (* body runs up to and including the line labeled [lbl] *)
      let rec collect acc =
        match peek_line c with
        | None -> fail tc.lineno "DO %d: terminator label %d not found" lbl lbl
        | Some l ->
          let s = parse_stmt u c (next_line c) in
          let acc = s :: acc in
          if l.label = Some lbl then List.rev acc else collect acc
      in
      collect []
    | None ->
      let body = parse_block u c ~stop:is_enddo in
      ignore (next_line c);
      body
  in
  Stmt.mk ?label
    (Do { index; init = resolve init; limit = resolve limit; step; body;
          info = Ast.fresh_loop_info () })

and is_enddo l =
  line_starts_with l [ "END"; "DO" ] || line_starts_with l [ "ENDDO" ]

and is_endif l =
  line_starts_with l [ "END"; "IF" ] || line_starts_with l [ "ENDIF" ]

and is_else l = line_starts_with l [ "ELSE" ] && not (line_starts_with l [ "ELSEIF" ])

and parse_if_branches u c =
  (* after IF (cond) THEN; parse then-block and else-part *)
  let then_ = parse_block u c ~stop:(fun l -> is_endif l || is_else l || is_elseif l) in
  match peek_line c with
  | Some l when is_elseif l ->
    let l = next_line c in
    let toks =
      match l.toks with
      | ID "ELSEIF" :: tl -> tl
      | ID "ELSE" :: ID "IF" :: tl -> tl
      | _ -> fail l.lineno "malformed ELSE IF"
    in
    let tc = { toks; lineno = l.lineno } in
    expect tc LPAR;
    let cond = parse_expr tc in
    expect tc RPAR;
    (match peek tc with
    | Some (ID "THEN") -> ()
    | _ -> fail l.lineno "ELSE IF without THEN");
    let t2, e2 = parse_if_branches u c in
    let nested = Stmt.mk (If (resolve_refs u.pu_symtab cond, t2, e2)) in
    (then_, [ nested ])
  | Some l when is_else l ->
    ignore (next_line c);
    let else_ = parse_block u c ~stop:is_endif in
    ignore (next_line c);
    (then_, else_)
  | Some l when is_endif l ->
    ignore (next_line c);
    (then_, [])
  | Some l -> fail l.lineno "expected ELSE or END IF"
  | None -> raise (Error "unexpected end of file in IF block")

and is_elseif l =
  line_starts_with l [ "ELSEIF" ] || line_starts_with l [ "ELSE"; "IF" ]

and parse_block u c ~stop : Ast.block =
  let rec loop acc =
    match peek_line c with
    | None -> List.rev acc
    | Some l when stop l -> List.rev acc
    | Some _ ->
      let s = parse_stmt u c (next_line c) in
      loop (s :: acc)
  in
  loop []

(* ------------------------------------------------------------------ *)
(* Program units                                                       *)

let is_end_unit (l : line) =
  match l.toks with [ ID "END" ] -> true | _ -> false

let parse_unit_header (l : line) : Punit.t =
  let tc = { toks = l.toks; lineno = l.lineno } in
  let parse_arglist () =
    match peek tc with
    | Some LPAR ->
      advance tc;
      let rec loop acc =
        match peek tc with
        | Some RPAR -> advance tc; List.rev acc
        | Some COMMA -> advance tc; loop acc
        | Some (ID a) -> advance tc; loop (a :: acc)
        | _ -> fail l.lineno "malformed argument list"
      in
      loop []
    | _ -> []
  in
  match l.toks with
  | ID "PROGRAM" :: _ ->
    advance tc;
    let name = eat_id tc in
    Punit.create ~kind:Main name
  | ID "SUBROUTINE" :: _ ->
    advance tc;
    let name = eat_id tc in
    let args = parse_arglist () in
    Punit.create ~kind:Subroutine ~args name
  | ID "FUNCTION" :: _ ->
    advance tc;
    let name = eat_id tc in
    let args = parse_arglist () in
    Punit.create ~kind:(Function (Symtab.implicit_type name)) ~args name
  | ID kw :: ID "FUNCTION" :: _ when base_type_of_kw kw <> None ->
    advance tc; advance tc;
    let name = eat_id tc in
    let args = parse_arglist () in
    let typ = Option.get (base_type_of_kw kw) in
    Punit.create ~kind:(Function typ) ~args name
  | ID "DOUBLE" :: ID "PRECISION" :: ID "FUNCTION" :: _ ->
    advance tc; advance tc; advance tc;
    let name = eat_id tc in
    let args = parse_arglist () in
    Punit.create ~kind:(Function Double_precision) ~args name
  | _ -> fail l.lineno "expected PROGRAM, SUBROUTINE or FUNCTION header"

let parse_unit (c : cursor) : Punit.t =
  let header = next_line c in
  let u = parse_unit_header header in
  (* declarations *)
  let rec decls () =
    match peek_line c with
    | Some l when not (is_end_unit l) && l.label = None && try_declaration u l ->
      ignore (next_line c);
      decls ()
    | _ -> ()
  in
  decls ();
  (* function units: declare the return variable *)
  (match u.pu_kind with
  | Function typ when not (Symtab.mem u.pu_symtab u.pu_name) ->
    Symtab.define u.pu_symtab (Symtab.mk_symbol ~typ u.pu_name)
  | _ -> ());
  u.pu_body <- parse_block u c ~stop:is_end_unit;
  ignore (next_line c) (* END *);
  u

(** Parse a whole source file into a program.
    @raise Error on any syntax problem. *)
let parse_string (src : string) : Program.t =
  let lines = Array.of_list (Lexer.lines_of_string src) in
  let c = { pos = 0; lines } in
  let rec loop acc =
    match peek_line c with
    | None -> List.rev acc
    | Some _ -> loop (parse_unit c :: acc)
  in
  let prog = Program.create (loop []) in
  Consistency.check prog
