(** Abstract syntax for the Fortran 77 subset manipulated by the compiler.

    This module only declares the shared types; operations live in
    {!Expr}, {!Stmt}, {!Symtab}, {!Punit}, {!Program} and {!Pattern}.
    Mirrors the Polaris internal representation (Faigin et al. 1994): a
    straightforward abstract syntax tree with high-level functionality
    layered on top.

    Identifiers are stored upper-case (Fortran is case-insensitive); the
    frontend normalizes on the way in. *)

type base_type =
  | Integer
  | Real
  | Double_precision
  | Complex
  | Logical
  | Character

type unop = Neg | Not

type binop =
  | Add | Sub | Mul | Div | Pow
  | And | Or
  | Eq | Ne | Lt | Le | Gt | Ge

type expr =
  | Int_lit of int
  | Real_lit of float
  | Logical_lit of bool
  | Char_lit of string
  | Var of string                  (** scalar variable reference *)
  | Ref of string * expr list      (** array element reference *)
  | Fun_call of string * expr list (** intrinsic or user function call *)
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Wildcard of int                (** pattern metavariable, see {!Pattern} *)

(** Reduction operators recognized by the idiom pass (paper §3.2). *)
type reduction_op = Rsum | Rprod | Rmax | Rmin

(** [Single_address] reductions accumulate into a scalar or one fixed
    array element; [Histogram] reductions accumulate into elements that
    vary with the iteration (paper §3.2). *)
type reduction_kind = Single_address | Histogram

(** How a recognized reduction is implemented (paper §3.2, citing the
    idiom-recognition paper): [Private_copies] gives each processor a
    private scalar merged at the end, [Expanded] expands an array
    reduction into per-processor copies merged element-wise. *)
type reduction_form = Private_copies | Expanded

type reduction = {
  red_var : string;
  red_op : reduction_op;
  red_kind : reduction_kind;
  red_form : reduction_form;
}

(** Parallelization facts attached to a [Do] loop by the analysis passes.
    Mutable by design: passes refine the annotation in place, in the same
    way Polaris attached assertions to its IR statements. *)
type loop_info = {
  mutable par : bool;                 (** proven DOALL *)
  mutable privates : string list;     (** privatized scalars and arrays *)
  mutable lastprivates : string list; (** privates needing last-value copy-out *)
  mutable reductions : reduction list;
  mutable par_reason : string;        (** test that proved/disproved parallelism *)
  mutable speculative : bool;         (** parallel only under a run-time PD test *)
}

type stmt = {
  sid : int;               (** unique statement id, see {!Stmt.fresh_id} *)
  label : int option;      (** numeric Fortran label, target of GOTO/DO *)
  kind : stmt_kind;
}

and stmt_kind =
  | Assign of expr * expr           (** lhs ([Var] or [Ref]) = rhs *)
  | If of expr * block * block
  | Do of do_loop
  | While of expr * block
  | Call of string * expr list
  | Goto of int
  | Continue
  | Return
  | Stop
  | Print of expr list

and do_loop = {
  index : string;
  init : expr;
  limit : expr;
  step : expr option;               (** [None] means step 1 *)
  body : block;
  info : loop_info;
}

and block = stmt list

type unit_kind = Main | Subroutine | Function of base_type

type symbol = {
  sym_name : string;
  sym_type : base_type;
  sym_dims : (expr * expr) list;  (** per-dimension (lower, upper); [[]] = scalar *)
  sym_param : expr option;        (** PARAMETER compile-time constant *)
  sym_common : string option;     (** name of the COMMON block, if any *)
  sym_arg_pos : int option;       (** position among the dummy arguments *)
}

let fresh_loop_info () =
  { par = false; privates = []; lastprivates = []; reductions = [];
    par_reason = ""; speculative = false }

let base_type_to_string = function
  | Integer -> "INTEGER"
  | Real -> "REAL"
  | Double_precision -> "DOUBLE PRECISION"
  | Complex -> "COMPLEX"
  | Logical -> "LOGICAL"
  | Character -> "CHARACTER"
