(** Fortran interpreter with a simulated-time cost model.

    The interpreter serves three roles in the reproduction:
    - semantic oracle: transformation passes are validated by running
      original vs. transformed programs and comparing memory/output;
    - serial timer: Table 1's serial-time column is the simulated time
      of each suite code;
    - parallel timer: with [parallel = true] the annotations produced by
      the compiler ({!Fir.Ast.loop_info}) are honoured and DOALL loops
      are timed with the {!Parsim} multiprocessor model (execution stays
      sequential, so semantics are independent of the timing model).

    Simulated time is deterministic: a pure function of program, input
    and configuration.

    Execution first lowers every program unit into a tree of OCaml
    closures ({!lower_program}, once per run): each variable becomes an
    index into the frame's slot array, each block a prebuilt array of
    statement closures, and each expression whose static class the
    declarations fix ({!Fir.Sclass}) a closure returning an unboxed
    [int] or [bool], or, for a REAL expression, writing its [float] into
    a register of the frame, so no float leaves a closure boxed.  Slots
    are still bound lazily, on first use, exactly as a name-keyed
    environment binds names.  The lowered code charges the cost model,
    consumes fuel and fires the hooks statement for statement like the
    direct tree-walking evaluator kept in {!Treewalk}, the independent
    reference the validation oracle runs.

    A closure calls out of line only into other closures and cold
    paths.  The cache model ({!Cache}), the memory charge, the fuel
    tick and the typed reads and writes are [@inline] helpers of this
    module that take no function argument, and each hot closure tests
    its slot in place: dune's dev profile compiles with [-opaque], so
    nothing is inlined across modules. *)

open Fir
open Ast

exception Runtime_error of string

(** Raised when execution exceeds [max_steps]; the payload locates the
    abort: statement count, executing unit, innermost DO loop. *)
exception Fuel_exhausted of string

let error fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Cost constants                                                      *)

module Cost = struct
  let binop = function
    | Add | Sub | And | Or | Eq | Ne | Lt | Le | Gt | Ge -> 1
    | Mul -> 1
    | Div -> 4
    | Pow -> 8

  let unop = 1
  let intrinsic = 4
  let assign = 1
  let mem_hit = 1
  let mem_miss = 9
  let loop_iter = 2
  let call = 16
  let print = 8
end

(** Direct-mapped data cache model.

    A deliberately small model: it exists to give the cost model a
    locality signal (stride-1 loops cheap, large-stride or scattered
    access expensive) so that code-generation differences between the
    Polaris and baseline pipelines show up in simulated time, as they
    did between Polaris and PFA on the SGI Challenge (paper §4.2).
    1024 sets of 8-word lines.  It lives here because every array
    access probes it: {!charge_mem} inlines {!access}. *)
module Cache = struct
  (** Tag per set; -1 = empty. *)
  type t = int array

  let sets = 1024

  (* log2 of the 8-byte words per line *)
  let line_shift = 3

  let create () : t = Array.make sets (-1)

  (** Empty [t] in place: afterwards it behaves as a fresh {!create}. *)
  let reset (t : t) = Array.fill t 0 sets (-1)

  (** [access t addr] records a word access; returns [true] on hit.
      Addresses of accessed elements are non-negative. *)
  let[@inline] access (t : t) addr =
    let line = addr lsr line_shift in
    let set = line land (sets - 1) in
    if t.(set) = line then true
    else begin
      t.(set) <- line;
      false
    end
end

(* ------------------------------------------------------------------ *)
(* Configuration and state                                             *)

type config = {
  parallel : bool;              (** honour DOALL annotations for timing *)
  machine : Parsim.config;
  max_steps : int;              (** fuel: statements executed before abort *)
  seed : int option;
      (** when set, fresh local/COMMON storage is filled with
          deterministic splitmix64 values (keyed by variable name, not
          allocation order) instead of zeros — the translation-validation
          oracle uses this to differentially execute a program pair on
          several initial stores *)
}

let default_config ?(parallel = false) ?(procs = 8) ?seed () =
  { parallel; machine = Parsim.default ~procs (); max_steps = 200_000_000;
    seed }

type rw = R | W

type outcome = Normal | Jump of int | Returned | Stopped

type state = {
  prog : Program.t;
  cfg : config;
  cache : Cache.t;
  commons : (string, Storage.binding) Hashtbl.t;  (** key "BLK/NAME" *)
  mutable time : int;
  mutable steps : int;
  mutable par_depth : int;       (** > 0 when inside a simulated DOALL *)
  mutable cur_unit : string;     (** unit being executed (fuel diagnostics) *)
  mutable cur_loop : string option;  (** innermost DO index being executed *)
  mutable output : string list;  (** PRINT lines, reversed *)
  mutable on_access : (rw -> string -> int -> unit) option;
      (** runtime-analysis hook: kind, array name, linear element index *)
  mutable on_loop_iter : (int -> int -> int -> unit) option;
      (** called before each DO iteration: loop statement id, iteration
          number (0-based), current simulated time *)
  mutable on_loop_done : (int -> int -> unit) option;
      (** called when a DO completes: loop statement id, time *)
  mutable on_assign : (string -> unit) option;
      (** scalar-write hook: called with the variable name on every
          assignment to a scalar (the real executor tracks last-value
          copy-out of privatized scalars with it) *)
  mutable on_parallel_do :
    (state -> frame -> int -> do_loop -> body:block -> init:int -> step:int ->
     trips:int -> outcome option)
      option;
      (** real-execution hook: offered every DO loop reached at
          [par_depth = 0] with its evaluated bounds and lowered body,
          {e before} the serial (or Parsim-timed) path runs.  Returning
          [Some outcome] means the hook executed the loop (e.g.
          {!Parexec} ran it on domains); [None] falls through to the
          ordinary path.  The hook must leave [idx] and all memory
          exactly as serial execution would. *)
}

(** An activation of a program unit: one binding per slot of the unit's
    lowered code, {!unbound} until the variable is first used, and one
    register per REAL node of that code.  Every call and every
    {!Parexec} block gets a frame of its own, so no register is written
    by two activations or two domains. *)
and frame = {
  code : code;
  slots : Storage.binding array;
  regs : float array;
}

(** A program unit lowered for one execution. *)
and code = {
  c_unit : Punit.t;
  c_prog : Program.t;
  c_units : (string, code) Hashtbl.t;  (** every unit of the program *)
  c_names : string array;              (** slot -> variable name *)
  c_slot : (string, int) Hashtbl.t;    (** variable name -> slot *)
  c_class : Sclass.t option array;
      (** slot -> static class of the allocation bound to it; [None]
          when the declarations do not fix it ({!slot_classes}) *)
  mutable c_regs : int;
      (** registers the lowered code writes, fixed by {!lower_program}
          before any frame of the unit exists *)
  mutable c_body : block;
}

(** A lowered REAL expression: [run] evaluates it into
    [fr.regs.(reg)], a register no other node of the unit writes. *)
and real = {
  reg : int;
  run : state -> frame -> unit;
}

(** A lowered statement list: one closure per statement, and each
    statement's label for GOTO resolution. *)
and block = {
  stmts : (state -> frame -> outcome) array;
  labels : int option array;
}

let charge st n = st.time <- st.time + n

(* element [i] of [v] through the cache model: allocations are given
   disjoint 8-byte-word address ranges, [aid * 2^24] onwards *)
let[@inline] charge_mem st (v : Storage.view) i =
  let hit = Cache.access st.cache ((v.alloc.aid * (1 lsl 24)) + v.off + i) in
  charge st (if hit then Cost.mem_hit else Cost.mem_miss)

(* the abort of {!tick}, kept out of its inlined body *)
let fuel_exhausted st =
  raise
    (Fuel_exhausted
       (Fmt.str "after %d statements in unit %s%s" st.steps st.cur_unit
          (match st.cur_loop with
          | Some i -> ", loop DO " ^ i
          | None -> "")))

let[@inline] tick st =
  st.steps <- st.steps + 1;
  if st.steps > st.cfg.max_steps then fuel_exhausted st

(* Typed reads and writes.  A variable is read through them only when
   its static class ({!Fir.Sclass}) fixes the class of the allocation
   bound to it, so a mismatch is a broken invariant, reported as a fault
   rather than a wrong value.  A write converts as [Storage.write_elem]
   converts a boxed value.

   Float code.  Without flambda, ocamlopt boxes every float that crosses
   a call it does not inline, and dune's dev profile compiles with
   [-opaque], so nothing is inlined across modules.  So every float
   operation of a REAL closure is written out inside it, or in one of
   the [@inline] helpers below, which take no function argument. *)

(** [Value.to_int (Storage.read_elem v i)] of an INTEGER allocation. *)
let[@inline] read_int (v : Storage.view) i =
  match v.alloc.data with
  | Iarr a ->
    let j = v.off + i in
    if j < 0 || j >= Array.length a then Storage.fault "read out of bounds (%d)" j;
    a.(j)
  | _ -> Storage.class_fault "INTEGER"

(** [Value.to_bool (Storage.read_elem v i)] of a LOGICAL allocation. *)
let[@inline] read_bool (v : Storage.view) i =
  match v.alloc.data with
  | Barr a ->
    let j = v.off + i in
    if j < 0 || j >= Array.length a then Storage.fault "read out of bounds (%d)" j;
    a.(j)
  | _ -> Storage.class_fault "LOGICAL"

(** [Value.to_float (Storage.read_elem v i)] of a REAL allocation. *)
let[@inline] read_float (v : Storage.view) i =
  match v.alloc.data with
  | Farr a ->
    let j = v.off + i in
    if j < 0 || j >= Array.length a then Storage.fault "read out of bounds (%d)" j;
    a.(j)
  | _ -> Storage.class_fault "REAL"

(** [Storage.write_elem v i (Value.Real x)] without boxing [x]. *)
let[@inline] write_float (v : Storage.view) i x =
  let j = v.off + i in
  match v.alloc.data with
  | Farr a ->
    if j < 0 || j >= Array.length a then Storage.fault "write out of bounds (%d)" j;
    a.(j) <- x
  | Iarr a ->
    if j < 0 || j >= Array.length a then Storage.fault "write out of bounds (%d)" j;
    a.(j) <- int_of_float x
  | Barr a ->
    if j < 0 || j >= Array.length a then Storage.fault "write out of bounds (%d)" j;
    a.(j) <- Value.to_bool (Value.Real x)

(** [Storage.write_elem v i (Value.Int n)] without boxing [n]. *)
let[@inline] write_int (v : Storage.view) i n =
  let j = v.off + i in
  match v.alloc.data with
  | Farr a ->
    if j < 0 || j >= Array.length a then Storage.fault "write out of bounds (%d)" j;
    a.(j) <- float_of_int n
  | Iarr a ->
    if j < 0 || j >= Array.length a then Storage.fault "write out of bounds (%d)" j;
    a.(j) <- n
  | Barr a ->
    if j < 0 || j >= Array.length a then Storage.fault "write out of bounds (%d)" j;
    a.(j) <- Value.to_bool (Value.Int n)

(** [Storage.write_elem v i (Value.Bool b)] without boxing [b]. *)
let[@inline] write_bool (v : Storage.view) i b =
  let j = v.off + i in
  match v.alloc.data with
  | Barr a ->
    if j < 0 || j >= Array.length a then Storage.fault "write out of bounds (%d)" j;
    a.(j) <- b
  | Farr a ->
    if j < 0 || j >= Array.length a then Storage.fault "write out of bounds (%d)" j;
    a.(j) <- Value.to_float (Value.Bool b)
  | Iarr a ->
    if j < 0 || j >= Array.length a then Storage.fault "write out of bounds (%d)" j;
    a.(j) <- Value.to_int (Value.Bool b)

(* a DO construct's index update.  It is a scalar write too: the real
   executor's last-value masks must see nested loop indices *)
let[@inline] set_index st (d : do_loop) (index : Storage.binding) v =
  (match st.on_assign with Some f -> f d.index | None -> ());
  write_int index.view 0 v

(* deterministic per-name seeding of fresh storage: the value stream
   depends only on (seed, name), so the original and the transformed
   program see the same initial store regardless of allocation order;
   integers are kept small so seeded loop bounds stay tame *)
let seed_binding seed name (b : Storage.binding) =
  let r = Util.Prng.create (seed lxor (Hashtbl.hash name * 0x2545F491)) in
  let n = Storage.extent_of b in
  for i = 0 to n - 1 do
    let v =
      match b.Storage.elem with
      | Integer -> Value.Int (Util.Prng.int r 4)
      | Logical -> Value.Bool (Util.Prng.int r 2 = 1)
      | _ -> Value.Real (Util.Prng.float r)
    in
    Storage.write_elem b.view i v
  done

let maybe_seed st name (b : Storage.binding) =
  (match st.cfg.seed with Some s -> seed_binding s name b | None -> ());
  b

(* ------------------------------------------------------------------ *)
(* Slots                                                               *)

(** Placeholder of a slot whose variable has not been bound yet. *)
let unbound : Storage.binding =
  { view = { alloc = { aid = 0; data = Storage.Iarr [||] }; off = 0 };
    dims = []; elem = Integer }

let new_frame (c : code) =
  { code = c;
    slots = Array.make (Array.length c.c_names) unbound;
    regs = Array.make c.c_regs 0.0 }

let slot_index (c : code) name =
  match Hashtbl.find_opt c.c_slot name with
  | Some i -> i
  | None -> error "unit %s: no slot for %s" c.c_unit.pu_name name

(** Every bound variable of [fr], with its binding. *)
let bound_vars (fr : frame) =
  let acc = ref [] in
  Array.iteri
    (fun i b -> if b != unbound then acc := (fr.code.c_names.(i), b) :: !acc)
    fr.slots;
  !acc

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)

(* the variable names a unit can touch: everything its statements
   mention, its dummies and result variable, and every symbol of its
   symbol table with the names in its dimension and PARAMETER
   expressions (evaluated when a variable is first bound) *)
let unit_names (u : Punit.t) =
  let acc = ref (u.pu_name :: u.pu_args) in
  let add_expr e =
    acc :=
      Expr.fold
        (fun acc -> function Var v | Ref (v, _) -> v :: acc | _ -> acc)
        !acc e
  in
  Stmt.iter
    (fun s ->
      (match s.kind with Do d -> acc := d.index :: !acc | _ -> ());
      List.iter (fun (_, e) -> add_expr e) (Stmt.exprs_of s))
    u.pu_body;
  Symtab.fold
    (fun _ (sym : symbol) () ->
      acc := sym.sym_name :: !acc;
      List.iter (fun (lo, hi) -> add_expr lo; add_expr hi) sym.sym_dims;
      Option.iter add_expr sym.sym_param)
    u.pu_symtab ();
  List.sort_uniq String.compare !acc

(* the static class of [e] in unit [c] (see {!slot_classes}) *)
let class_of (c : code) e =
  Sclass.classify
    (fun v ->
      match Hashtbl.find_opt c.c_slot v with Some i -> c.c_class.(i) | None -> None)
    e

(* An intrinsic call evaluates its arguments left to right, then is
   charged. *)
let intrinsic1 a g st fr =
  let v = g (a st fr) in
  charge st Cost.intrinsic;
  v

let intrinsic2 a b g st fr =
  let x = a st fr in
  let v = g x (b st fr) in
  charge st Cost.intrinsic;
  v

(* INTEGER MAX/MIN over one or more arguments *)
let intrinsic_fold args g =
  match args with
  | [ a; b ] -> intrinsic2 a b g
  | a :: rest ->
    fun st fr ->
      let v = List.fold_left (fun acc f -> g acc (f st fr)) (a st fr) rest in
      charge st Cost.intrinsic;
      v
  | [] -> invalid_arg "intrinsic_fold"

(* [Value.max_num]/[min_num] of two integers *)
let imax (x : int) y = if x >= y then x else y
let imin (x : int) y = if x <= y then x else y

let[@inline] sign_float x y =
  let mag = Float.abs x in
  if y < 0.0 then -.mag else mag

(* the REAL intrinsics of one argument *)
type real1 = Abs | Sqrt | Sin | Cos | Tan | Atan | Exp | Log | Conv

let real1_of = function
  | "ABS" | "IABS" | "DABS" -> Some Abs
  | "SQRT" | "DSQRT" -> Some Sqrt
  | "SIN" | "DSIN" -> Some Sin
  | "COS" | "DCOS" -> Some Cos
  | "TAN" | "DTAN" -> Some Tan
  | "ATAN" | "DATAN" -> Some Atan
  | "EXP" | "DEXP" -> Some Exp
  | "LOG" | "ALOG" | "DLOG" -> Some Log
  | "REAL" | "FLOAT" | "DBLE" | "SNGL" -> Some Conv
  | _ -> None

let[@inline] apply_real1 op x =
  match op with
  | Abs -> Float.abs x
  | Sqrt -> Float.sqrt x
  | Sin -> Float.sin x
  | Cos -> Float.cos x
  | Tan -> Float.tan x
  | Atan -> Float.atan x
  | Exp -> Float.exp x
  | Log -> Float.log x
  | Conv -> x

let new_reg (c : code) =
  let r = c.c_regs in
  c.c_regs <- r + 1;
  r

(* [slot st fr i]: the hot closures write its test out inline, and call
   [bind] only on a slot's first use *)
let rec slot st fr i =
  let b = fr.slots.(i) in
  if b != unbound then b else bind st fr i

(* first use of slot [i]: bind it as the tree-walker binds a name *)
and bind st fr i =
  let sym = Symtab.lookup fr.code.c_unit.pu_symtab fr.code.c_names.(i) in
  let b =
    match sym.sym_common with
    | Some blk -> common_binding st fr blk sym
    | None ->
      (match sym.sym_param with
      | Some value ->
        (* parameters are bound once to their constant value *)
        let b = Storage.scalar_binding sym.sym_type in
        Storage.write_elem b.view 0 (eval_cold st fr value);
        b
      | None ->
        maybe_seed st sym.sym_name
          (if sym.sym_dims = [] then Storage.scalar_binding sym.sym_type
           else Storage.array_binding sym.sym_type (eval_dims st fr sym)))
  in
  fr.slots.(i) <- b;
  b

(* dimension expressions may reference other dummies (e.g. B(N)): they
   are evaluated in the frame being bound *)
and eval_dims st fr (sym : symbol) =
  List.map
    (fun (lo, hi) ->
      let lo = Value.to_int (eval_cold st fr lo) in
      match hi with
      | Var "*" -> (lo, -1)
      | _ ->
        let hi = Value.to_int (eval_cold st fr hi) in
        (lo, hi - lo + 1))
    sym.sym_dims

and common_binding st fr blk (sym : symbol) =
  let key = blk ^ "/" ^ sym.sym_name in
  match Hashtbl.find_opt st.commons key with
  | Some b -> b
  | None ->
    let b =
      maybe_seed st key
        (if sym.sym_dims = [] then Storage.scalar_binding sym.sym_type
         else Storage.array_binding sym.sym_type (eval_dims st fr sym))
    in
    Hashtbl.replace st.commons key b;
    b

(* symbol-table expressions run once per binding, lowered on the spot.
   A first read may bind a variable halfway through an expression of
   [fr], and the unit's register count was fixed before [fr] existed,
   so the expression is lowered against a register counter of its own
   and evaluated with a register array of its own, sharing [fr]'s
   slots; the unit's code is only read *)
and eval_cold st fr e =
  let c = { fr.code with c_regs = 0 } in
  let f = lower_expr c e in
  f st { fr with code = c; regs = Array.make c.c_regs 0.0 }

(* A classified expression lowers by its class: [lower_int] and
   [lower_bool] to a closure returning its unboxed value, [lower_real]
   to a closure writing its float into a register ({!real}).
   [lower_expr] boxes such a value where a [Value.t] is needed, and
   lowers an unclassified expression to boxed closures
   ([lower_boxed]), whose operands are lowered by class again. *)
and lower_expr (c : code) (e : expr) : state -> frame -> Value.t =
  match (e, class_of c e) with
  | (Int_lit _ | Real_lit _ | Logical_lit _), _ | _, None -> lower_boxed c e
  | _, Some Sclass.Int ->
    let f = lower_int c e in
    fun st fr -> Value.Int (f st fr)
  | _, Some Sclass.Real ->
    let { reg = r; run } = lower_real c e in
    fun st fr ->
      run st fr;
      Value.Real fr.regs.(r)
  | _, Some Sclass.Bool ->
    let f = lower_bool c e in
    fun st fr -> Value.Bool (f st fr)

(* [Value.to_int] of [e], [Value.to_float] of a numeric [e] (into a
   register), [Value.to_bool] of [e] *)
and lower_to_int c e : state -> frame -> int =
  match class_of c e with
  | Some Sclass.Int -> lower_int c e
  | Some Sclass.Real ->
    let { reg = r; run } = lower_real c e in
    fun st fr ->
      run st fr;
      int_of_float fr.regs.(r)
  | _ ->
    let f = lower_expr c e in
    fun st fr -> Value.to_int (f st fr)

and lower_num c e : real =
  match class_of c e with
  | Some Sclass.Real -> lower_real c e
  | Some Sclass.Int -> (
    match e with
    | Int_lit n -> lower_real c (Real_lit (float_of_int n))
    | _ ->
      let f = lower_int c e and r = new_reg c in
      { reg = r; run = (fun st fr -> fr.regs.(r) <- float_of_int (f st fr)) })
  | _ -> of_boxed c (lower_expr c e)

(* a boxed closure's value, [Value.to_float]ed into a register *)
and of_boxed c f : real =
  let r = new_reg c in
  { reg = r; run = (fun st fr -> fr.regs.(r) <- Value.to_float (f st fr)) }

and lower_to_bool c e : state -> frame -> bool =
  match class_of c e with
  | Some Sclass.Bool -> lower_bool c e
  | _ ->
    let f = lower_expr c e in
    fun st fr -> Value.to_bool (f st fr)

(* variable reads: the scalar check, or the subscript, the access hook
   and the memory charge; then [read] *)
and lower_scalar_read : 'a. code -> string -> (Storage.view -> int -> 'a) ->
    state -> frame -> 'a =
 fun c v read ->
  let i = slot_index c v in
  fun st fr ->
    let b = fr.slots.(i) in
    let b = if b != unbound then b else bind st fr i in
    (match b.dims with [] -> () | _ -> error "array %s used as scalar" v);
    read b.view 0

and lower_elem_read : 'a. code -> string -> expr list ->
    (Storage.view -> int -> 'a) -> state -> frame -> 'a =
 fun c v subs read ->
  let i = slot_index c v in
  let index = lower_index c v subs in
  fun st fr ->
    let b = fr.slots.(i) in
    let b = if b != unbound then b else bind st fr i in
    let k = index st fr b in
    (match st.on_access with Some f -> f R v k | None -> ());
    charge_mem st b.view k;
    read b.view k

(* the fallback of a typed lowering, for a shape it does not cover: the
   boxed closure, unboxed *)
and unbox : 'a. code -> expr -> (Value.t -> 'a) -> state -> frame -> 'a =
 fun c e conv ->
  let f = lower_boxed c e in
  fun st fr -> conv (f st fr)

and lower_int c e : state -> frame -> int =
  match e with
  | Int_lit n -> fun _ _ -> n
  | Var v ->
    (* [lower_scalar_read] and [lower_elem_read] written out, so that
       [read_int] is inlined rather than called through an argument *)
    let i = slot_index c v in
    fun st fr ->
      let b = fr.slots.(i) in
      let b = if b != unbound then b else bind st fr i in
      (match b.dims with [] -> () | _ -> error "array %s used as scalar" v);
      read_int b.view 0
  | Ref (v, subs) ->
    let i = slot_index c v and index = lower_index c v subs in
    fun st fr ->
      let b = fr.slots.(i) in
      let b = if b != unbound then b else bind st fr i in
      let k = index st fr b in
      (match st.on_access with Some f -> f R v k | None -> ());
      charge_mem st b.view k;
      read_int b.view k
  | Unary (Neg, a) ->
    let a = lower_int c a in
    fun st fr ->
      charge st Cost.unop;
      -(a st fr)
  | Binary (((Add | Sub | Mul | Div | Pow) as op), a, b) -> (
    let cost = Cost.binop op in
    let a = lower_int c a and b = lower_int c b in
    match op with
    | Add ->
      fun st fr ->
        charge st cost;
        let x = a st fr in
        x + b st fr
    | Sub ->
      fun st fr ->
        charge st cost;
        let x = a st fr in
        x - b st fr
    | Mul ->
      fun st fr ->
        charge st cost;
        let x = a st fr in
        x * b st fr
    | Div ->
      (* Fortran integer division truncates toward zero, as does OCaml's
         [/], which raises [Division_by_zero] as [Value.div] does *)
      fun st fr ->
        charge st cost;
        let x = a st fr in
        x / b st fr
    | _ ->
      fun st fr ->
        charge st cost;
        let x = a st fr in
        Value.pow_int x (b st fr))
  | Fun_call (f, args) -> (
    match (f, args) with
    | ("ABS" | "IABS" | "DABS"), [ a ] -> intrinsic1 (lower_int c a) abs
    | ("MOD" | "AMOD" | "DMOD"), [ a; b ] ->
      intrinsic2 (lower_int c a) (lower_int c b) (fun x y -> x mod y)
    | ("MAX" | "MAX0" | "AMAX1" | "DMAX1"), _ ->
      intrinsic_fold (List.map (lower_int c) args) imax
    | ("MIN" | "MIN0" | "AMIN1" | "DMIN1"), _ ->
      intrinsic_fold (List.map (lower_int c) args) imin
    | ("INT" | "IFIX" | "IDINT"), [ a ] -> intrinsic1 (lower_to_int c a) Fun.id
    | ("NINT" | "IDNINT"), [ a ] ->
      let { reg = ra; run = fa } = lower_num c a in
      fun st fr ->
        fa st fr;
        let v = int_of_float (Float.round fr.regs.(ra)) in
        charge st Cost.intrinsic;
        v
    | ("SIGN" | "ISIGN" | "DSIGN"), [ a; b ] ->
      let a = lower_int c a and { reg = rb; run = fb } = lower_num c b in
      fun st fr ->
        let x = a st fr in
        fb st fr;
        let v = int_of_float (sign_float (float_of_int x) fr.regs.(rb)) in
        charge st Cost.intrinsic;
        v
    | _ -> unbox c e Value.to_int)
  | _ -> unbox c e Value.to_int

(* Each node runs its operands left to right, then reads their registers
   and writes its own; [charge]s fall where the tree-walker's do. *)
and lower_real c e : real =
  match e with
  | Real_lit x ->
    let r = new_reg c in
    { reg = r; run = (fun _ fr -> fr.regs.(r) <- x) }
  | Var v ->
    let i = slot_index c v and r = new_reg c in
    { reg = r;
      run =
        (fun st fr ->
          let b = fr.slots.(i) in
          let b = if b != unbound then b else bind st fr i in
          (match b.dims with [] -> () | _ -> error "array %s used as scalar" v);
          fr.regs.(r) <- read_float b.view 0) }
  | Ref (v, subs) ->
    let i = slot_index c v and index = lower_index c v subs and r = new_reg c in
    { reg = r;
      run =
        (fun st fr ->
          let b = fr.slots.(i) in
          let b = if b != unbound then b else bind st fr i in
          let k = index st fr b in
          (match st.on_access with Some f -> f R v k | None -> ());
          charge_mem st b.view k;
          fr.regs.(r) <- read_float b.view k) }
  | Unary (Neg, a) ->
    let { reg = ra; run = fa } = lower_real c a and r = new_reg c in
    { reg = r;
      run =
        (fun st fr ->
          charge st Cost.unop;
          fa st fr;
          fr.regs.(r) <- -.fr.regs.(ra)) }
  | Binary (Pow, a, b) when class_of c b = Some Sclass.Int ->
    let cost = Cost.binop Pow in
    let { reg = ra; run = fa } = lower_num c a and b = lower_int c b and r = new_reg c in
    { reg = r;
      run =
        (fun st fr ->
          charge st cost;
          fa st fr;
          let y = b st fr in
          let regs = fr.regs in
          (* [Value.pow_real_int]: iterated multiplication *)
          if y >= 0 then begin
            regs.(r) <- 1.0;
            for _ = 1 to y do
              regs.(r) <- regs.(r) *. regs.(ra)
            done
          end
          else regs.(r) <- Float.pow regs.(ra) (float_of_int y)) }
  | Binary (((Add | Sub | Mul | Div | Pow) as op), a, b) -> (
    let cost = Cost.binop op in
    let { reg = ra; run = fa } = lower_num c a and { reg = rb; run = fb } = lower_num c b in
    let r = new_reg c in
    let node run = { reg = r; run } in
    match op with
    | Add ->
      node (fun st fr ->
          charge st cost;
          fa st fr;
          fb st fr;
          let regs = fr.regs in
          regs.(r) <- regs.(ra) +. regs.(rb))
    | Sub ->
      node (fun st fr ->
          charge st cost;
          fa st fr;
          fb st fr;
          let regs = fr.regs in
          regs.(r) <- regs.(ra) -. regs.(rb))
    | Mul ->
      node (fun st fr ->
          charge st cost;
          fa st fr;
          fb st fr;
          let regs = fr.regs in
          regs.(r) <- regs.(ra) *. regs.(rb))
    | Div ->
      node (fun st fr ->
          charge st cost;
          fa st fr;
          fb st fr;
          let regs = fr.regs in
          regs.(r) <- regs.(ra) /. regs.(rb))
    | _ ->
      node (fun st fr ->
          charge st cost;
          fa st fr;
          fb st fr;
          let regs = fr.regs in
          regs.(r) <- Float.pow regs.(ra) regs.(rb)))
  | Fun_call (f, args) -> (
    match (f, args, real1_of f) with
    | _, [ a ], Some op ->
      let { reg = ra; run = fa } = lower_num c a and r = new_reg c in
      { reg = r;
        run =
          (fun st fr ->
            fa st fr;
            fr.regs.(r) <- apply_real1 op fr.regs.(ra);
            charge st Cost.intrinsic) }
    | ("MOD" | "AMOD" | "DMOD"), [ a; b ], _ ->
      let { reg = ra; run = fa } = lower_num c a and { reg = rb; run = fb } = lower_num c b in
      let r = new_reg c in
      { reg = r;
        run =
          (fun st fr ->
            fa st fr;
            fb st fr;
            fr.regs.(r) <- Float.rem fr.regs.(ra) fr.regs.(rb);
            charge st Cost.intrinsic) }
    | ("SIGN" | "ISIGN" | "DSIGN"), [ a; b ], _ ->
      let { reg = ra; run = fa } = lower_real c a and { reg = rb; run = fb } = lower_num c b in
      let r = new_reg c in
      { reg = r;
        run =
          (fun st fr ->
            fa st fr;
            fb st fr;
            fr.regs.(r) <- sign_float fr.regs.(ra) fr.regs.(rb);
            charge st Cost.intrinsic) }
    | ("MAX" | "MAX0" | "AMAX1" | "DMAX1"), _ :: _, _ -> real_fold c ~max:true args
    | ("MIN" | "MIN0" | "AMIN1" | "DMIN1"), _ :: _, _ -> real_fold c ~max:false args
    | _ -> of_boxed c (lower_boxed c e))
  | _ -> of_boxed c (lower_boxed c e)

(* REAL MAX/MIN: every argument, then the fold [Value.max_num]/[min_num]
   makes, left to right *)
and real_fold c ~max args : real =
  let args = Array.of_list (List.map (lower_real c) args) and r = new_reg c in
  let n = Array.length args in
  { reg = r;
    run =
      (fun st fr ->
        for k = 0 to n - 1 do
          args.(k).run st fr
        done;
        let regs = fr.regs in
        regs.(r) <- regs.(args.(0).reg);
        for k = 1 to n - 1 do
          let x = regs.(r) and y = regs.(args.(k).reg) in
          regs.(r) <- (if max then if x >= y then x else y else if x <= y then x else y)
        done;
        charge st Cost.intrinsic) }

and lower_bool c e : state -> frame -> bool =
  match e with
  | Logical_lit b -> fun _ _ -> b
  | Var v -> lower_scalar_read c v read_bool
  | Ref (v, subs) -> lower_elem_read c v subs read_bool
  | Unary (Not, a) ->
    let a = lower_bool c a in
    fun st fr ->
      charge st Cost.unop;
      not (a st fr)
  | Binary (((And | Or) as op), a, b) -> (
    let cost = Cost.binop op in
    let a = lower_bool c a and b = lower_bool c b in
    (* no short-circuit: both operands are evaluated *)
    match op with
    | And ->
      fun st fr ->
        charge st cost;
        let x = a st fr in
        let y = b st fr in
        x && y
    | _ ->
      fun st fr ->
        charge st cost;
        let x = a st fr in
        let y = b st fr in
        x || y)
  | Binary (((Eq | Ne | Lt | Le | Gt | Ge) as op), a, b) -> (
    let cost = Cost.binop op in
    let relation la lb cmp =
      let a = la c a and b = lb c b in
      fun st fr ->
        charge st cost;
        let x = a st fr in
        cmp x (b st fr)
    in
    match (class_of c a, class_of c b, op) with
    | Some Sclass.Int, Some Sclass.Int, _ ->
      relation lower_int lower_int
        (match op with
        | Eq -> fun (x : int) y -> x = y
        | Ne -> fun (x : int) y -> x <> y
        | Lt -> fun (x : int) y -> x < y
        | Le -> fun (x : int) y -> x <= y
        | Gt -> fun (x : int) y -> x > y
        | _ -> fun (x : int) y -> x >= y)
    | Some Sclass.Bool, Some Sclass.Bool, Eq -> relation lower_bool lower_bool Bool.equal
    | Some Sclass.Bool, Some Sclass.Bool, _ ->
      relation lower_bool lower_bool (fun x y -> not (Bool.equal x y))
    | _ -> (
      (* IEEE-754 predicates, as [Value]'s *)
      let { reg = ra; run = fa } = lower_num c a and { reg = rb; run = fb } = lower_num c b in
      match op with
      | Eq ->
        fun st fr ->
          charge st cost;
          fa st fr;
          fb st fr;
          fr.regs.(ra) = fr.regs.(rb)
      | Ne ->
        fun st fr ->
          charge st cost;
          fa st fr;
          fb st fr;
          not (fr.regs.(ra) = fr.regs.(rb))
      | Lt ->
        fun st fr ->
          charge st cost;
          fa st fr;
          fb st fr;
          fr.regs.(ra) < fr.regs.(rb)
      | Le ->
        fun st fr ->
          charge st cost;
          fa st fr;
          fb st fr;
          fr.regs.(ra) <= fr.regs.(rb)
      | Gt ->
        fun st fr ->
          charge st cost;
          fa st fr;
          fb st fr;
          fr.regs.(ra) > fr.regs.(rb)
      | _ ->
        fun st fr ->
          charge st cost;
          fa st fr;
          fb st fr;
          fr.regs.(ra) >= fr.regs.(rb)))
  | _ -> unbox c e Value.to_bool

(* an unclassified expression: every value boxed *)
and lower_boxed (c : code) (e : expr) : state -> frame -> Value.t =
  match e with
  | Int_lit n ->
    let v = Value.Int n in
    fun _ _ -> v
  | Real_lit x ->
    let v = Value.Real x in
    fun _ _ -> v
  | Logical_lit b ->
    let v = Value.Bool b in
    fun _ _ -> v
  | Char_lit s ->
    let v = Value.Str s in
    fun _ _ -> v
  | Wildcard n -> fun _ _ -> error "wildcard ?%d evaluated" n
  | Var v -> lower_scalar_read c v Storage.read_elem
  | Ref (v, subs) -> lower_elem_read c v subs Storage.read_elem
  | Unary (Neg, a) ->
    let a = lower_expr c a in
    fun st fr ->
      charge st Cost.unop;
      Value.neg (a st fr)
  | Unary (Not, a) ->
    let a = lower_expr c a in
    fun st fr ->
      charge st Cost.unop;
      Value.Bool (not (Value.to_bool (a st fr)))
  | Binary (op, a, b) -> lower_binary op (lower_expr c a) (lower_expr c b)
  | Fun_call (f, args) -> lower_call c f args

(* the operator is charged first, then both operands are evaluated left
   to right (no short-circuit for .AND./.OR.) *)
and lower_binary op a b =
  let cost = Cost.binop op in
  match op with
  | Add ->
    fun st fr ->
      charge st cost;
      let va = a st fr in
      Value.add va (b st fr)
  | Sub ->
    fun st fr ->
      charge st cost;
      let va = a st fr in
      Value.sub va (b st fr)
  | Mul ->
    fun st fr ->
      charge st cost;
      let va = a st fr in
      Value.mul va (b st fr)
  | Div ->
    fun st fr ->
      charge st cost;
      let va = a st fr in
      Value.div va (b st fr)
  | Pow ->
    fun st fr ->
      charge st cost;
      let va = a st fr in
      Value.pow va (b st fr)
  | Eq ->
    fun st fr ->
      charge st cost;
      let va = a st fr in
      Value.Bool (Value.equal va (b st fr))
  | Ne ->
    fun st fr ->
      charge st cost;
      let va = a st fr in
      Value.Bool (not (Value.equal va (b st fr)))
  | Lt ->
    fun st fr ->
      charge st cost;
      let va = a st fr in
      Value.Bool (Value.lt va (b st fr))
  | Le ->
    fun st fr ->
      charge st cost;
      let va = a st fr in
      Value.Bool (Value.le va (b st fr))
  | Gt ->
    fun st fr ->
      charge st cost;
      let va = a st fr in
      Value.Bool (Value.gt va (b st fr))
  | Ge ->
    fun st fr ->
      charge st cost;
      let va = a st fr in
      Value.Bool (Value.ge va (b st fr))
  | And ->
    fun st fr ->
      charge st cost;
      let va = Value.to_bool (a st fr) in
      let vb = Value.to_bool (b st fr) in
      Value.Bool (va && vb)
  | Or ->
    fun st fr ->
      charge st cost;
      let va = Value.to_bool (a st fr) in
      let vb = Value.to_bool (b st fr) in
      Value.Bool (va || vb)

(* linear element index of [v(subs)] within binding [b]: subscripts are
   evaluated left to right, then charged one unit each *)
and lower_index c v subs : state -> frame -> Storage.binding -> int =
  let n = List.length subs in
  let subs = List.map (lower_to_int c) subs in
  let general st fr (b : Storage.binding) =
    let xs = List.map (fun s -> s st fr) subs in
    charge st n;
    Storage.linear_index b.dims xs
  in
  let scalar_error () = error "%s subscripted but bound as scalar" v in
  match subs with
  | [ s ] ->
    fun st fr b ->
      (match b.dims with
      | [ (lo, _) ] ->
        let x = s st fr in
        charge st 1;
        x - lo
      | [] -> scalar_error ()
      | _ -> general st fr b)
  | [ s1; s2 ] ->
    fun st fr b ->
      (match b.dims with
      | [ (lo1, e1); (lo2, _) ] ->
        let x1 = s1 st fr in
        let x2 = s2 st fr in
        charge st 2;
        x1 - lo1 + ((x2 - lo2) * imax e1 1)
      | [] -> scalar_error ()
      | _ -> general st fr b)
  | [ s1; s2; s3 ] ->
    fun st fr b ->
      (match b.dims with
      | [ (lo1, e1); (lo2, e2); (lo3, _) ] ->
        let x1 = s1 st fr in
        let x2 = s2 st fr in
        let x3 = s3 st fr in
        charge st 3;
        let stride2 = imax e1 1 in
        x1 - lo1 + ((x2 - lo2) * stride2) + ((x3 - lo3) * stride2 * imax e2 1)
      | [] -> scalar_error ()
      | _ -> general st fr b)
  | _ ->
    fun st fr b ->
      (match b.dims with [] -> scalar_error () | _ -> general st fr b)

(* intrinsics shadow user functions of the same name; an intrinsic
   called with the wrong arity falls through to the user function *)
and lower_call c f args =
  let user = lower_user_function c f args in
  let args = List.map (lower_expr c) args in
  let open Value in
  let unary g =
    match args with
    | [ a ] ->
      fun st fr ->
        let v = g (a st fr) in
        charge st Cost.intrinsic;
        v
    | _ -> user
  in
  (* MOD and SIGN evaluate every argument before checking the arity *)
  let binary g =
    match args with
    | [ a; b ] ->
      fun st fr ->
        let va = a st fr in
        let v = g va (b st fr) in
        charge st Cost.intrinsic;
        v
    | _ ->
      fun st fr ->
        List.iter (fun a -> ignore (a st fr)) args;
        user st fr
  in
  let fold g =
    match args with
    | [] -> user
    | [ _; _ ] -> binary g
    | _ ->
      fun st fr ->
        let v =
          match List.map (fun a -> a st fr) args with
          | v :: rest -> List.fold_left g v rest
          | [] -> assert false
        in
        charge st Cost.intrinsic;
        v
  in
  match f with
  | "ABS" | "IABS" | "DABS" ->
    unary (function Int n -> Int (abs n) | v -> Real (Float.abs (to_float v)))
  | "MOD" | "AMOD" | "DMOD" ->
    binary (fun a b ->
        match (a, b) with
        | Int a, Int b -> Int (a mod b)
        | a, b -> Real (Float.rem (to_float a) (to_float b)))
  | "MAX" | "MAX0" | "AMAX1" | "DMAX1" -> fold max_num
  | "MIN" | "MIN0" | "AMIN1" | "DMIN1" -> fold min_num
  | "SQRT" | "DSQRT" -> unary (fun v -> Real (Float.sqrt (to_float v)))
  | "SIN" | "DSIN" -> unary (fun v -> Real (Float.sin (to_float v)))
  | "COS" | "DCOS" -> unary (fun v -> Real (Float.cos (to_float v)))
  | "TAN" | "DTAN" -> unary (fun v -> Real (Float.tan (to_float v)))
  | "ATAN" | "DATAN" -> unary (fun v -> Real (Float.atan (to_float v)))
  | "EXP" | "DEXP" -> unary (fun v -> Real (Float.exp (to_float v)))
  | "LOG" | "ALOG" | "DLOG" -> unary (fun v -> Real (Float.log (to_float v)))
  | "INT" | "IFIX" | "IDINT" -> unary (fun v -> Int (to_int v))
  | "NINT" | "IDNINT" ->
    unary (fun v -> Int (int_of_float (Float.round (to_float v))))
  | "REAL" | "FLOAT" | "DBLE" | "SNGL" -> unary (fun v -> Real (to_float v))
  | "SIGN" | "ISIGN" | "DSIGN" ->
    binary (fun a b ->
        let mag = Float.abs (to_float a) in
        let v = if to_float b < 0.0 then -.mag else mag in
        match a with Int _ -> Int (int_of_float v) | _ -> Real v)
  | _ -> user

and lower_user_function c f args =
  match Program.find_unit c.c_prog f with
  | Some u when Punit.is_function u ->
    let callee = Hashtbl.find c.c_units u.pu_name in
    let enter = lower_call_frame c callee args in
    let result = Hashtbl.find_opt callee.c_slot f in
    fun st fr ->
      charge st Cost.call;
      let cfr = enter st fr in
      run_unit_body st cfr;
      let ret =
        match result with
        | Some i -> slot st cfr i
        | None -> error "unit %s: no slot for %s" u.pu_name f
      in
      Storage.read_elem ret.view 0
  | _ -> fun _ _ -> error "unknown function %s" f

(* the callee frame of a call: two-phase binding, scalars first, then
   arrays, because an array formal's dimension expressions may reference
   scalar formals that appear later in the argument list (adjustable
   arrays) *)
and lower_call_frame c (callee : code) actuals =
  let u = callee.c_unit in
  let nf = List.length u.pu_args and na = List.length actuals in
  if nf <> na then fun _ _ -> error "%s called with %d args, expects %d" u.pu_name na nf
  else
    let binders =
      List.map2
        (fun formal actual ->
          let target = slot_index callee formal in
          match Symtab.find_opt u.pu_symtab formal with
          | Some sym when sym.sym_dims <> [] ->
            Either.Right (lower_array_actual c formal actual sym target)
          | Some _ -> Either.Left (lower_scalar_actual c actual target)
          | None ->
            (* an undeclared dummy is an implicit scalar, materialized in
               the callee's symbol table at the call *)
            let bind = lower_scalar_actual c actual target in
            Either.Left
              (fun st fr cfr ->
                ignore (Symtab.lookup u.pu_symtab formal);
                bind st fr cfr))
        u.pu_args actuals
    in
    let scalars, arrays = List.partition_map Fun.id binders in
    fun st fr ->
      let cfr = new_frame callee in
      List.iter (fun bind -> bind st fr cfr) scalars;
      List.iter (fun bind -> bind st fr cfr) arrays;
      cfr

and lower_scalar_actual c actual target =
  match actual with
  | Var v ->
    let i = slot_index c v in
    fun st fr cfr ->
      (* scalar dummy: alias the caller's cell (or an array's first
         element when a whole array is passed) *)
      let b = slot st fr i in
      cfr.slots.(target) <- { b with dims = [] }
  | Ref (v, subs) ->
    let i = slot_index c v in
    let index = lower_index c v subs in
    fun st fr cfr ->
      let b = slot st fr i in
      let k = index st fr b in
      let view = { b.view with off = b.view.off + k } in
      cfr.slots.(target) <- { Storage.view; dims = []; elem = b.elem }
  | e ->
    (* expression actual: copy-in, read-only temporary *)
    let ev = lower_expr c e in
    fun st fr cfr ->
      let v = ev st fr in
      let typ = match v with Value.Int _ -> Integer | _ -> Real in
      let b = Storage.scalar_binding typ in
      Storage.write_elem b.view 0 v;
      cfr.slots.(target) <- b

and lower_array_actual c formal actual sym target =
  match actual with
  | Var v ->
    let i = slot_index c v in
    fun st fr cfr ->
      let b = slot st fr i in
      cfr.slots.(target) <- { b with dims = eval_dims st cfr sym }
  | Ref (v, subs) ->
    let i = slot_index c v in
    let index = lower_index c v subs in
    fun st fr cfr ->
      let b = slot st fr i in
      let k = index st fr b in
      let view = { b.view with off = b.view.off + k } in
      cfr.slots.(target) <-
        { Storage.view; dims = eval_dims st cfr sym; elem = b.elem }
  | e ->
    fun _ _ _ ->
      error "array formal %s bound to expression %s" formal (Expr.to_string e)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)

and lower_block c (b : Ast.block) : block =
  { stmts = Array.of_list (List.map (lower_stmt c) b);
    labels = Array.of_list (List.map (fun (s : stmt) -> s.label) b) }

(* every statement closure first consumes one unit of fuel *)
and lower_stmt c (s : stmt) : state -> frame -> outcome =
  match s.kind with
  | Assign (lhs, rhs) -> lower_assign c lhs rhs
  | If (cond, t, e) ->
    let cond = lower_to_bool c cond in
    let t = lower_block c t and e = lower_block c e in
    fun st fr ->
      tick st;
      exec_block st fr (if cond st fr then t else e)
  | Do d -> lower_do c s.sid d
  | While (cond, body) ->
    let cond = lower_to_bool c cond in
    let body = lower_block c body in
    fun st fr ->
      tick st;
      (* a loop, not a local recursive function: a WHILE execution
         allocates no closure *)
      let outcome = ref Normal and go = ref true in
      while !go do
        charge st Cost.loop_iter;
        if cond st fr then begin
          outcome := exec_block st fr body;
          go := !outcome == Normal
        end
        else go := false
      done;
      !outcome
  | Call (name, args) -> (
    match Program.find_unit c.c_prog name with
    | Some u ->
      let enter = lower_call_frame c (Hashtbl.find c.c_units u.pu_name) args in
      fun st fr ->
        tick st;
        charge st Cost.call;
        run_unit_body st (enter st fr);
        Normal
    | None ->
      fun st _ ->
        tick st;
        error "unknown subroutine %s" name)
  | Goto l ->
    let jump = Jump l in
    fun st _ ->
      tick st;
      jump
  | Continue ->
    fun st _ ->
      tick st;
      Normal
  | Return ->
    fun st _ ->
      tick st;
      Returned
  | Stop ->
    fun st _ ->
      tick st;
      Stopped
  | Print args ->
    let args = List.map (lower_expr c) args in
    fun st fr ->
      tick st;
      charge st Cost.print;
      let line =
        String.concat " " (List.map (fun e -> Value.to_string (e st fr)) args)
      in
      st.output <- line :: st.output;
      Normal

(* the right-hand side is lowered by its class and stored with the
   matching conversion, which [write] performs as [Storage.write_elem]
   would *)
and lower_assign c lhs rhs =
  match class_of c rhs with
  | Some Sclass.Int -> assign c lhs (lower_int c rhs) write_int
  | Some Sclass.Real ->
    (* the value stays in its register: [assign] passes the array *)
    let { reg = r; run } = lower_real c rhs in
    assign c lhs
      (fun st fr -> run st fr; fr.regs)
      (fun v k regs -> write_float v k regs.(r))
  | Some Sclass.Bool -> assign c lhs (lower_bool c rhs) write_bool
  | None -> assign c lhs (lower_boxed c rhs) Storage.write_elem

and assign : 'a. code -> expr -> (state -> frame -> 'a) ->
    (Storage.view -> int -> 'a -> unit) -> state -> frame -> outcome =
 fun c lhs rhs write ->
  match lhs with
  | Var name ->
    let i = slot_index c name in
    fun st fr ->
      tick st;
      charge st Cost.assign;
      let v = rhs st fr in
      let b = fr.slots.(i) in
      let b = if b != unbound then b else bind st fr i in
      (match b.dims with [] -> () | _ -> error "array %s assigned as scalar" name);
      (match st.on_assign with Some f -> f name | None -> ());
      write b.view 0 v;
      Normal
  | Ref (name, subs) ->
    let i = slot_index c name in
    let index = lower_index c name subs in
    fun st fr ->
      tick st;
      charge st Cost.assign;
      let v = rhs st fr in
      let b = fr.slots.(i) in
      let b = if b != unbound then b else bind st fr i in
      let k = index st fr b in
      (match st.on_access with Some f -> f W name k | None -> ());
      charge_mem st b.view k;
      write b.view k v;
      Normal
  | e ->
    fun st fr ->
      tick st;
      charge st Cost.assign;
      ignore (rhs st fr);
      error "invalid assignment target %s" (Expr.to_string e)

and lower_do c sid (d : do_loop) =
  let init = lower_to_int c d.init and limit = lower_to_int c d.limit in
  let step = Option.map (lower_to_int c) d.step in
  let index = slot_index c d.index in
  let body = lower_block c d.body in
  let here = Some d.index in
  fun st fr ->
    tick st;
    (* track the innermost executing loop for fuel-exhaustion diagnostics;
       restored on normal exit only — on an abort the innermost loop is
       exactly the location to report *)
    let enclosing_loop = st.cur_loop in
    st.cur_loop <- here;
    let init = init st fr in
    let limit = limit st fr in
    let step = match step with Some e -> e st fr | None -> 1 in
    if step = 0 then error "DO %s: zero step" d.index;
    let trips = imax 0 ((limit - init + step) / step) in
    let index = slot st fr index in
    let outcome = exec_do st fr sid d body ~index ~init ~step ~trips in
    st.cur_loop <- enclosing_loop;
    outcome

and exec_do st fr sid (d : do_loop) body ~(index : Storage.binding) ~init ~step
    ~trips : outcome =
  let real_executed =
    match st.on_parallel_do with
    | Some hook when st.par_depth = 0 -> hook st fr sid d ~body ~init ~step ~trips
    | _ -> None
  in
  match real_executed with
  | Some outcome -> outcome
  | None ->
  let simulate_parallel =
    st.cfg.parallel && d.info.par && (not d.info.speculative) && st.par_depth = 0
  in
  if simulate_parallel then begin
    st.par_depth <- st.par_depth + 1;
    let t0 = st.time in
    let iter_costs = Array.make trips 0 in
    let k = ref 0 and outcome = ref Normal in
    while !outcome == Normal && !k < trips do
      let before = st.time in
      (match st.on_loop_iter with Some f -> f sid !k st.time | None -> ());
      set_index st d index (init + (!k * step));
      charge st Cost.loop_iter;
      outcome := exec_block st fr body;
      (* read only when every iteration completes *)
      iter_costs.(!k) <- st.time - before;
      incr k
    done;
    let outcome = !outcome in
    set_index st d index (init + (trips * step));
    st.par_depth <- st.par_depth - 1;
    match outcome with
    | Normal ->
      let n_private =
        List.length d.info.privates + List.length d.info.lastprivates
      in
      let reduction_elems =
        Util.Listx.sum_by
          (fun (r : reduction) ->
            match r.red_form with
            | Private_copies ->
              (* one private cell per processor, merged at the join *)
              st.cfg.machine.procs
            | Expanded -> (
              match Symtab.find_opt fr.code.c_unit.pu_symtab r.red_var with
              | Some sym -> (
                match Symtab.const_size sym with Some n -> n | None -> 1)
              | None -> 1))
          d.info.reductions
      in
      st.time <-
        t0 + Parsim.doall_time st.cfg.machine ~iter_costs ~n_private ~reduction_elems;
      (match st.on_loop_done with Some f -> f sid st.time | None -> ());
      Normal
    | o -> o
    (* a non-local exit disables the parallel timing: time stays serial *)
  end
  else begin
    (* a loop, not a local recursive function: a DO execution allocates
       no closure *)
    let k = ref 0 and outcome = ref Normal in
    while !outcome == Normal && !k < trips do
      (match st.on_loop_iter with Some f -> f sid !k st.time | None -> ());
      set_index st d index (init + (!k * step));
      charge st Cost.loop_iter;
      outcome := exec_block st fr body;
      incr k
    done;
    (match !outcome with Normal -> set_index st d index (init + (trips * step)) | _ -> ());
    (match st.on_loop_iter with Some f -> f sid trips st.time | None -> ());
    (match st.on_loop_done with Some f -> f sid st.time | None -> ());
    !outcome
  end

and exec_block st fr (b : block) : outcome = exec_from st fr b 0

(* statements [pc ..] of [b], following GOTOs to labels of [b] *)
and exec_from st fr (b : block) pc : outcome =
  if pc >= Array.length b.stmts then Normal
  else
    match b.stmts.(pc) st fr with
    | Normal -> exec_from st fr b (pc + 1)
    | Jump l as o -> (
      match find_label b.labels l with
      | Some target -> exec_from st fr b target
      | None -> o)
    | o -> o

and find_label labels l =
  let n = Array.length labels in
  let rec go i =
    if i >= n then None
    else match labels.(i) with Some m when m = l -> Some i | _ -> go (i + 1)
  in
  go 0

and run_unit_body st (fr : frame) =
  let caller = st.cur_unit in
  let u = fr.code.c_unit in
  st.cur_unit <- u.pu_name;
  (match exec_block st fr fr.code.c_body with
  | Normal | Returned | Stopped -> ()
  | Jump l -> error "unit %s: GOTO %d escapes the unit" u.pu_name l);
  st.cur_unit <- caller

(* COMMON members ("BLK/NAME") that two units declare with different
   classes: the first unit to bind one fixes its allocation's class *)
let mixed_commons units =
  let first = Hashtbl.create 16 and mixed = Hashtbl.create 4 in
  List.iter
    (fun (u : Punit.t) ->
      Symtab.fold
        (fun _ (sym : symbol) () ->
          match sym.sym_common with
          | Some blk -> (
            let key = blk ^ "/" ^ sym.sym_name and cls = Sclass.of_type sym.sym_type in
            match Hashtbl.find_opt first key with
            | Some c -> if c <> cls then Hashtbl.replace mixed key ()
            | None -> Hashtbl.replace first key cls)
          | None -> ())
        u.pu_symtab ())
    units;
  mixed

(* The static class of each slot's allocation.  A local, a PARAMETER or
   a COMMON member is allocated by its declared or implicit type, so its
   class is fixed before the run and every typed read of it is safe by
   construction.  Two kinds of variable are left unclassified, and so
   read boxed: a dummy, whose allocation is the actual argument's, and
   a COMMON member declared with two classes. *)
let slot_classes mixed (u : Punit.t) names =
  Array.map
    (fun name ->
      if List.mem name u.pu_args then None
      else
        match Symtab.find_opt u.pu_symtab name with
        | Some { sym_common = Some blk; _ } when Hashtbl.mem mixed (blk ^ "/" ^ name) -> None
        | _ -> Sclass.of_symtab u.pu_symtab name)
    names

(** Lower every unit of [prog]: slot layouts first, so a call site can
    resolve its callee's dummies, then the bodies, which fix each unit's
    register count.  Lowering only reads the program, and nothing is
    kept across executions. *)
let lower_program (prog : Program.t) : (string, code) Hashtbl.t =
  let units = Hashtbl.create 8 in
  let mixed = mixed_commons (Program.units prog) in
  List.iter
    (fun (u : Punit.t) ->
      let names = Array.of_list (unit_names u) in
      let slot_of = Hashtbl.create (Array.length names) in
      Array.iteri (fun i n -> Hashtbl.replace slot_of n i) names;
      Hashtbl.replace units u.pu_name
        { c_unit = u; c_prog = prog; c_units = units; c_names = names;
          c_slot = slot_of; c_class = slot_classes mixed u names; c_regs = 0;
          c_body = { stmts = [||]; labels = [||] } })
    (Program.units prog);
  Hashtbl.iter (fun _ c -> c.c_body <- lower_block c c.c_unit.pu_body) units;
  units

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let fresh_state ?(cfg = default_config ()) prog =
  { prog; cfg; cache = Cache.create (); commons = Hashtbl.create 8; time = 0;
    steps = 0; par_depth = 0; cur_unit = "?"; cur_loop = None; output = [];
    on_access = None; on_loop_iter = None; on_loop_done = None;
    on_assign = None; on_parallel_do = None }

(** Lower [st]'s program and return a fresh frame for its main unit. *)
let main_frame st =
  let units = lower_program st.prog in
  new_frame (Hashtbl.find units (Program.main st.prog).pu_name)

(** Resolve [name] in [fr], binding it on first use. *)
let binding_for st (fr : frame) name = slot st fr (slot_index fr.code name)

type result = {
  time : int;                 (** simulated time units *)
  output : string list;      (** PRINT lines, in order *)
  final : (string * Value.t) list;
      (** final values of the main unit's scalar variables *)
}

(* run the main unit and hand back the full machine state *)
let run_main ?cfg (prog : Program.t) : state * frame =
  let st = fresh_state ?cfg prog in
  let fr = main_frame st in
  run_unit_body st fr;
  (st, fr)

let sorted_by_name xs = List.sort (fun (a, _) (b, _) -> String.compare a b) xs

(** The {!result} of a finished run whose main frame bound [vars]. *)
let result_of_vars (st : state) (vars : (string * Storage.binding) list) : result =
  let final =
    List.filter_map
      (fun (name, (b : Storage.binding)) ->
        if b.dims = [] then Some (name, Storage.read_elem b.view 0) else None)
      vars
    |> sorted_by_name
  in
  { time = st.time; output = List.rev st.output; final }

(** Run the main program unit to completion. *)
let run ?cfg (prog : Program.t) : result =
  let st, fr = run_main ?cfg prog in
  result_of_vars st (bound_vars fr)

(** Typed full-state capture for the translation-validation oracle:
    the {!result} plus every main-frame array and every COMMON member,
    each copied from its binding's view as typed {!Storage.data}, so
    integers and logicals compare bit-for-bit and floats can be
    compared within an ULP tolerance. *)
type capture = {
  cap_result : result;
  cap_arrays : (string * Storage.data) list;   (** main-frame arrays *)
  cap_commons : (string * Storage.data) list;  (** key "BLK/NAME" *)
}

let data_of_binding (b : Storage.binding) = Storage.sub b.view (Storage.extent_of b)

(** The {!capture} of a finished run whose main frame bound [vars]. *)
let capture_of_vars (st : state) vars : capture =
  let arrays =
    List.filter_map
      (fun (name, (b : Storage.binding)) ->
        if b.dims = [] then None else Some (name, data_of_binding b))
      vars
    |> sorted_by_name
  in
  let commons =
    Hashtbl.fold
      (fun key (b : Storage.binding) acc -> (key, data_of_binding b) :: acc)
      st.commons []
    |> sorted_by_name
  in
  { cap_result = result_of_vars st vars; cap_arrays = arrays; cap_commons = commons }

(** The {!capture} of a finished run with main frame [fr]. *)
let capture_of st fr = capture_of_vars st (bound_vars fr)

let run_full ?cfg (prog : Program.t) : capture =
  let st, fr = run_main ?cfg prog in
  capture_of st fr
