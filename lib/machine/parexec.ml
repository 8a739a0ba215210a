(** Real parallel execution of DOALL and speculative loops on OCaml 5
    domains.

    {!Interp} prices DOALL loops with the {!Parsim} model but executes
    them sequentially; this module actually runs them.  It installs the
    interpreter's [on_parallel_do] hook and, for every annotated loop
    reached at [par_depth = 0], cuts the iteration space into blocks
    under the {e same} static schedule the model prices
    ({!Parsim.block_start}), so modeled processor [j] and block [j] own
    identical iteration ranges, and runs the blocks as one
    {!Util.Pool.map} batch on the execution's [procs] slots.  Which
    domain runs block [j] is the pool's choice and does not matter:
    each block has its own child state and its own place in the
    block-order merges.  A region must not start inside a pool task
    ([Pool.map] would raise [Nested_submit]); no caller does that.

    Each annotated loop is planned once per execution, at its first
    region ({!plan}): whether it can fork, the slots to pre-bind, what
    it privatizes and reduces, and what speculation tests.  The plan
    keeps every block's buffers (child state, slot array, private
    copies, accumulators, write masks, and for LRPD the checkpoints and
    shadows) and refills them in place on each later execution.

    Memory-safety argument (DESIGN.md §10):
    - each block runs the loop's lowered body (built before the fork,
      only read by the domains) on its own {!Interp.state} (own time,
      fuel, output, cache) and its own copy of the frame's slot array;
    - names in the loop body are pre-bound on the parent before the
      fork, so no domain ever binds a slot or touches the shared symbol
      table or the COMMON table during the region;
    - shared arrays are written only at compile-time-proven disjoint
      indices (DOALL) or guarded by the LRPD test (speculation);
      {!Storage} element writes are single word-sized stores, which the
      OCaml memory model guarantees tear-free;
    - privatized names and reduction variables are rebound to
      per-block allocations and merged after the batch, in ascending
      block order — a deterministic order that equals iteration order
      under block scheduling.

    Speculative (LRPD) loops run the PD test (paper §3.5.2) on
    {!Shadow} arrays: each block marks a private shadow of every tested
    array without synchronization, and the join merges them with
    {!Shadow.merge_into} and judges the merge with {!Shadow.verdict}.
    The shared written arrays are checkpointed with {!Storage.snapshot}
    before the fork; a failed PD test restores them with
    {!Storage.restore} and re-runs the loop sequentially on the parent
    state.  A loop is committed only on a plain [Parallel] verdict:
    [Parallel_privatized] means the as-executed in-place writes had
    output dependences, so the results are discarded exactly like a
    failure. *)

open Fir
open Ast

(** One speculative region instance, for tests and reporting. *)
type spec_event = {
  se_loop_sid : int;
  se_arrays : string list;                     (** tested (written) arrays *)
  se_verdict : Shadow.verdict;
  se_trips : int;
  se_domains : int;
  se_checkpoints : (string * Storage.data) list;
      (** entry snapshots of every tested array on the failure path;
          [[]] when the speculation succeeded *)
  se_after_restore : (string * Storage.data) list;
      (** snapshots taken immediately after {!Storage.restore} on the
          failure path; [[]] when the speculation succeeded *)
}

(** What one executed DOALL region actually privatized and reduced —
    the runtime half of the clause-equality contract: the OpenMP
    backends must emit exactly these sets ({!doall_private_set} is the
    single shared source of truth; [test/test_backend.ml] asserts the
    equality per suite code). *)
type region_info = {
  ri_sid : int;                 (** loop statement id *)
  ri_index : string;            (** loop index variable *)
  ri_privates : string list;    (** names rebound to per-domain copies *)
  ri_lastprivates : string list;     (** subset copied out by last value *)
  ri_reductions : (string * Ast.reduction_op) list;
}

type stats = {
  mutable regions : int;        (** parallel regions executed for real *)
  mutable par_iters : int;      (** iterations executed on worker domains *)
  mutable serial_loops : int;   (** annotated loops declined (ran serially) *)
  mutable spec_attempts : int;
  mutable spec_success : int;
  mutable spec_failures : int;  (** restored + re-executed sequentially *)
  mutable events : spec_event list;  (** newest first *)
  mutable region_infos : region_info list;
      (** one privatization/reduction record per forked DOALL loop, in
          the order of their first forks, newest first *)
}

let fresh_stats () =
  { regions = 0; par_iters = 0; serial_loops = 0; spec_attempts = 0;
    spec_success = 0; spec_failures = 0; events = []; region_infos = [] }

(* ------------------------------------------------------------------ *)
(* Structural safety                                                   *)

(* Variable names referenced anywhere in the loop (body + nested
   bounds), excluding called-function names: the set to pre-bind on the
   parent so child lookups never miss. *)
let loop_names (d : do_loop) =
  let acc = ref [ d.index ] in
  let add_expr e =
    acc :=
      Expr.fold
        (fun acc -> function
          | Var v | Ref (v, _) -> v :: acc
          | _ -> acc)
        !acc e
  in
  Stmt.iter
    (fun s ->
      (match s.kind with Do dd -> acc := dd.index :: !acc | _ -> ());
      List.iter (fun (_, e) -> add_expr e) (Stmt.exprs_of s))
    d.body;
  List.sort_uniq String.compare !acc

(* A loop body the fork-join model can run: no control flow that could
   escape the region (GOTO/RETURN/STOP) and no calls to user units
   (callee frames would bind symbols concurrently, and accesses through
   dummy arguments are invisible to masks and shadows). *)
let body_forkable (prog : Program.t) (d : do_loop) =
  let ok = ref true in
  Stmt.iter
    (fun s ->
      (match s.kind with
      | Goto _ | Return | Stop | Call _ -> ok := false
      | _ -> ());
      List.iter
        (fun (_, e) ->
          if
            Expr.exists
              (function
                | Fun_call (f, _) -> Program.find_unit prog f <> None
                | _ -> false)
              e
          then ok := false)
        (Stmt.exprs_of s))
    d.body;
  !ok

(* does the body ever READ scalar [v]?  (assignment targets [v = ...]
   do not count; everything else, including subscripts of assignment
   targets, does) *)
let reads_scalar (body : block) v =
  Stmt.fold
    (fun acc (s : stmt) ->
      acc
      || List.exists
           (fun ((role : Stmt.expr_role), e) ->
             match (role, e) with
             | Stmt.Elhs, Var x when String.equal x v -> false
             | Stmt.Elhs, Ref (_, subs) ->
               List.exists (Expr.mentions v) subs
             | _ -> Expr.mentions v e)
           (Stmt.exprs_of s))
    false body

(* Is written scalar [v] safe to privatize per-iteration with copy-in?
   Safe iff every iteration writes it before reading it.  Verdicts:
   [`Safe] (definitely assigned before any read), [`Unseen] (not
   referenced), anything conditional or read-first is unsafe. *)
let scalar_write_first (body : block) v =
  let rec scan_block b =
    List.fold_left
      (fun acc s -> match acc with `Unseen -> scan_stmt s | v -> v)
      `Unseen b
  and scan_stmt (s : stmt) =
    match s.kind with
    | Assign (Var x, rhs) when String.equal x v ->
      if Expr.mentions v rhs then `Unsafe else `Safe
    | Do dd when String.equal dd.index v ->
      if
        List.exists (Expr.mentions v)
          (dd.init :: dd.limit
          :: (match dd.step with Some e -> [ e ] | None -> []))
      then `Unsafe
      else `Safe (* the DO construct assigns the index first *)
    | If (c, t, e) ->
      if Expr.mentions v c then `Unsafe
      else begin
        match (scan_block t, scan_block e) with
        | `Unsafe, _ | _, `Unsafe -> `Unsafe
        | `Safe, `Safe -> `Safe
        | `Unseen, `Unseen -> `Unseen
        | _ -> `Unsafe (* conditionally written: refuse *)
      end
    | _ ->
      if
        List.exists (fun (_, e) -> Expr.mentions v e) (Stmt.exprs_of s)
        ||
        match s.kind with
        | Do dd -> scan_block dd.body <> `Unseen
        | While (_, b) -> scan_block b <> `Unseen
        | _ -> false
      then `Unsafe
      else `Unseen
  in
  scan_block body

let scalar_privatizable body v =
  (not (reads_scalar body v)) || scalar_write_first body v = `Safe

(* ------------------------------------------------------------------ *)
(* Private copies, masks, merges                                       *)

let int_identity = function Rsum -> 0 | Rprod -> 1 | Rmax -> min_int | Rmin -> max_int

let float_identity = function
  | Rsum -> 0.0
  | Rprod -> 1.0
  | Rmax -> neg_infinity
  | Rmin -> infinity

(* fill an accumulator with [op]'s identity; its allocation's class is
   its element type's *)
let fill_identity (pb : Storage.binding) (op : reduction_op) =
  let n = Storage.extent_of pb in
  match pb.view.alloc.data with
  | Storage.Iarr a -> Array.fill a 0 n (int_identity op)
  | Storage.Farr a -> Array.fill a 0 n (float_identity op)
  | Storage.Barr a -> Array.fill a 0 n false

(* the merge operator, matching the interpreter's semantics for the
   reduction statement forms (the MAX/MIN intrinsics use the same
   IEEE predicates) *)
let merge_value (op : reduction_op) a b =
  match op with
  | Rsum -> Value.add a b
  | Rprod -> Value.mul a b
  | Rmax -> Value.max_num a b
  | Rmin -> Value.min_num a b

(* One block's private copy or reduction accumulator of a shared
   binding, with the mask of the elements the block wrote.  [fit] is
   the element type, dims and extent of the binding it was allocated
   for.  Between executions the mask is clear and an accumulator holds
   its operator's identity: the merges restore both as they go. *)
type copy = {
  mutable cb : Storage.binding;
  mutable mask : Bytes.t;
  mutable fit : (base_type * (int * int) list * int) option;
}

let empty_copy () = { cb = Interp.unbound; mask = Bytes.empty; fit = None }

(* size [c] for shared binding [b]: keep its buffers when they were
   made for [b]'s element type, dims and extent, else allocate fresh
   ones ([red]'s identity in an accumulator).  Only a dummy argument
   bound to another actual changes them. *)
let refit ?red (c : copy) (b : Storage.binding) =
  let n = Storage.extent_of b in
  let fit = Some (b.elem, b.dims, n) in
  if c.fit <> fit then begin
    let size = max 1 n in
    c.cb <-
      { Storage.view = { alloc = Storage.allocate b.elem size; off = 0 };
        dims = b.dims; elem = b.elem };
    c.mask <- Bytes.make size '\000';
    c.fit <- fit;
    Option.iter (fill_identity c.cb) red
  end

let clear_mask (c : copy) = Bytes.fill c.mask 0 (Bytes.length c.mask) '\000'

(* Masked element loops over a parent binding [dst] and a block's copy.
   They visit the elements [i] of [dst] below the mask's length that the
   mask marks, clearing each mark, as typed loops over the two
   allocations when those have one class and every such element is in
   bounds, and otherwise element by element through {!Storage}, which
   faults where it faults. *)

let masked_length (dst : Storage.binding) (src : Storage.binding) mask =
  let n = min (Storage.extent_of dst) (Bytes.length mask) in
  if Storage.in_bounds dst.view n && Storage.in_bounds src.view n then Some n else None

let masked_boxed (dst : Storage.binding) mask f =
  for i = 0 to Storage.extent_of dst - 1 do
    if i < Bytes.length mask && Bytes.get mask i <> '\000' then f i
  done

(* last-value copy-out of one block's private copy *)
let copy_out_masked (dst : Storage.binding) (c : copy) =
  let src = c.cb and mask = c.mask in
  let d0 = dst.view.off and s0 = src.view.off in
  match (masked_length dst src mask, dst.view.alloc.data, src.view.alloc.data) with
  | Some n, Storage.Farr d, Storage.Farr s ->
    for i = 0 to n - 1 do
      if Bytes.unsafe_get mask i <> '\000' then begin
        d.(d0 + i) <- s.(s0 + i);
        Bytes.unsafe_set mask i '\000'
      end
    done
  | Some n, Storage.Iarr d, Storage.Iarr s ->
    for i = 0 to n - 1 do
      if Bytes.unsafe_get mask i <> '\000' then begin
        d.(d0 + i) <- s.(s0 + i);
        Bytes.unsafe_set mask i '\000'
      end
    done
  | Some n, Storage.Barr d, Storage.Barr s ->
    for i = 0 to n - 1 do
      if Bytes.unsafe_get mask i <> '\000' then begin
        d.(d0 + i) <- s.(s0 + i);
        Bytes.unsafe_set mask i '\000'
      end
    done
  | _ ->
    masked_boxed dst mask (fun i ->
        Storage.write_elem dst.view i (Storage.read_elem src.view i));
    clear_mask c

(* [dst op= acc] over one block's accumulator, which goes back to
   [op]'s identity *)
let merge_masked (op : reduction_op) (dst : Storage.binding) (c : copy) =
  let src = c.cb and mask = c.mask in
  let d0 = dst.view.off and s0 = src.view.off in
  match (masked_length dst src mask, dst.view.alloc.data, src.view.alloc.data) with
  | Some n, Storage.Farr d, Storage.Farr s ->
    let id = float_identity op in
    for i = 0 to n - 1 do
      if Bytes.unsafe_get mask i <> '\000' then begin
        let x = d.(d0 + i) and y = s.(s0 + i) in
        d.(d0 + i) <-
          (match op with
          | Rsum -> x +. y
          | Rprod -> x *. y
          | Rmax -> if x >= y then x else y
          | Rmin -> if x <= y then x else y);
        s.(s0 + i) <- id;
        Bytes.unsafe_set mask i '\000'
      end
    done
  | Some n, Storage.Iarr d, Storage.Iarr s ->
    let id = int_identity op in
    for i = 0 to n - 1 do
      if Bytes.unsafe_get mask i <> '\000' then begin
        let x = d.(d0 + i) and y = s.(s0 + i) in
        d.(d0 + i) <-
          (match op with
          | Rsum -> x + y
          | Rprod -> x * y
          | Rmax -> if x >= y then x else y
          | Rmin -> if x <= y then x else y);
        s.(s0 + i) <- id;
        Bytes.unsafe_set mask i '\000'
      end
    done
  | _ ->
    masked_boxed dst mask (fun i ->
        Storage.write_elem dst.view i
          (merge_value op (Storage.read_elem dst.view i) (Storage.read_elem src.view i)));
    fill_identity src op;
    clear_mask c

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)

(* A name a region rebinds in each block: a private, copied in, or a
   reduction variable, with an identity accumulator *)
type var = {
  v_name : string;
  v_slot : int;
  v_red : reduction_op option;
  v_array : bool;  (** writes reach its mask through [on_access] *)
}

(* One block's buffers, kept across the region's executions *)
type block = {
  b_state : Interp.state;      (** own time, fuel, output and cache *)
  b_frame : Interp.frame;      (** own slot array *)
  b_index : copy;              (** the loop index (its mask is unused) *)
  b_copies : copy array;       (** one per [vars] entry of the region *)
  mutable b_marks : (string * Shadow.t) list;  (** LRPD: this block's shadows *)
  mutable b_exn : (exn * Printexc.raw_backtrace) option;
}

(* An array an LRPD region tests, with its checkpoint and its shadows:
   one per block, and the one they merge into at the join *)
type tested = {
  t_name : string;
  t_slot : int;
  mutable t_ckpt : Storage.data option;
  mutable t_shadows : (Shadow.t array * Shadow.t) option;
}

(* what a forkable loop needs at each of its executions *)
type region = {
  prebind : int array;         (** slots of every name the loop mentions *)
  index : int;                 (** the loop index's slot *)
  vars : var array;            (** privates, then reduction variables *)
  tested : tested list;        (** LRPD: the arrays the loop writes *)
  spec_ok : bool;              (** LRPD: every scalar it writes is privatizable *)
  mutable blocks : block array;  (** grown to the widest execution so far *)
}

(** A loop's plan, derived at its first region and kept for the rest of
    the execution. *)
type plan = Serial | Forkable of region

type t = {
  procs : int;                  (** the pool slots a region runs on *)
  stats : stats;
  plans : (int, plan) Hashtbl.t;  (** by loop statement id *)
}

(* The definitive DOALL private set, shared between the executor and
   the OpenMP-emitting backends ([lib/backend]): the pass annotations
   (privates + lastprivates) plus every written scalar not covered by
   them — a write-only scalar (e.g. a temporary the liveness pass
   proved dead) written directly to the shared cell would race —
   minus the reduction variables and the loop index.  [is_array]
   abstracts over how the caller classifies names (runtime bindings
   here, the symbol table in the backends), so both compute the same
   set from the same loop by construction. *)
let doall_private_set ~(is_array : string -> bool) (d : do_loop) : string list =
  let red_vars = List.map (fun (r : reduction) -> r.red_var) d.info.reductions in
  let written_scalars =
    List.filter
      (fun v -> (not (String.equal v d.index)) && not (is_array v))
      (Stmt.assigned_names d.body)
  in
  List.sort_uniq String.compare
    (d.info.privates @ d.info.lastprivates @ written_scalars)
  |> List.filter (fun v ->
         (not (List.mem v red_vars)) && not (String.equal v d.index))

(* bind every slot the region can touch: after this, no child lookup
   mutates shared tables *)
let prebind_slots st fr slots = Array.iter (fun i -> ignore (Interp.slot st fr i)) slots

(* [d]'s plan, at its first region.  A name the body never mentions is
   never privatized or reduced here: its copy could not be written, so
   nothing would merge back.  A DOALL loop's clause record is logged
   now, at its first fork. *)
let make_plan (t : t) (st : Interp.state) (fr : Interp.frame) sid (d : do_loop) ~doall =
  if not (body_forkable st.prog d) then Serial
  else begin
    let names = loop_names d in
    let slot = Interp.slot_index fr.code in
    let prebind = Array.of_list (List.map slot names) in
    prebind_slots st fr prebind;
    let is_array v = (Interp.binding_for st fr v).dims <> [] in
    let var ?red v_name =
      { v_name; v_slot = slot v_name; v_red = red; v_array = is_array v_name }
    in
    let mentioned v = List.mem v names in
    let vars, tested, spec_ok =
      if doall then begin
        let privates = doall_private_set ~is_array d in
        t.stats.region_infos <-
          { ri_sid = sid; ri_index = d.index; ri_privates = privates;
            ri_lastprivates = List.filter (fun v -> List.mem v privates) d.info.lastprivates;
            ri_reductions =
              List.map (fun (r : reduction) -> (r.red_var, r.red_op)) d.info.reductions }
          :: t.stats.region_infos;
        ( List.map var (List.filter mentioned privates)
          @ List.filter_map
              (fun (r : reduction) ->
                if mentioned r.red_var then Some (var ~red:r.red_op r.red_var) else None)
              d.info.reductions,
          [],
          true )
      end
      else begin
        let arrays, scalars =
          List.partition is_array
            (List.filter (fun v -> not (String.equal v d.index)) (Stmt.assigned_names d.body))
        in
        ( List.map var scalars,
          List.map
            (fun t_name ->
              { t_name; t_slot = slot t_name; t_ckpt = None; t_shadows = None })
            arrays,
          List.for_all (scalar_privatizable d.body) scalars )
      end
    in
    Forkable
      { prebind; index = slot d.index; vars = Array.of_list vars; tested; spec_ok;
        blocks = [||] }
  end

(* ------------------------------------------------------------------ *)
(* Blocks                                                              *)

let child_state (st : Interp.state) : Interp.state =
  { st with
    cache = Interp.Cache.create ();
    time = 0;
    steps = st.steps;
    par_depth = 1;
    output = [];
    on_access = None; on_loop_iter = None; on_loop_done = None;
    on_assign = None; on_parallel_do = None }

(* [List.assoc_opt] for the short per-region lists of masks and shadow
   markers: a scan of a few names beats hashing one *)
let rec find_named name = function
  | [] -> None
  | (n, x) :: rest -> if String.equal n name then Some x else find_named name rest

(* a new block of [r] for frames of [fr]'s unit, its write masks hooked
   up.  Array writes reach the masks through [on_access], scalar writes
   and DO-index updates through [on_assign] (an assignment of the other
   kind faults before its hook fires, and [Fir.Consistency] rejects an
   array DO index), so each hook is installed only when a mask of its
   kind exists; an LRPD block's [on_access] also marks its shadows *)
let new_block (st : Interp.state) (fr : Interp.frame) (r : region) : block =
  let b =
    { b_state = child_state st; b_frame = Interp.new_frame fr.code;
      b_index = empty_copy (); b_copies = Array.map (fun _ -> empty_copy ()) r.vars;
      b_marks = []; b_exn = None }
  in
  let named = List.combine (Array.to_list r.vars) (Array.to_list b.b_copies) in
  let of_kind array =
    List.filter_map
      (fun (v, c) -> if v.v_array = array then Some (v.v_name, c) else None)
      named
  in
  let arrays = of_kind true and scalars = of_kind false in
  let masks rw name i =
    match rw with
    | Interp.W -> (
      match find_named name arrays with
      | Some c when i >= 0 && i < Bytes.length c.mask -> Bytes.set c.mask i '\001'
      | _ -> ())
    | Interp.R -> ()
  in
  let shadows rw name i =
    match find_named name b.b_marks with
    | Some sh -> (
      match rw with Interp.R -> Shadow.read sh i | Interp.W -> Shadow.write sh i)
    | None -> ()
  in
  b.b_state.on_access <-
    (match (arrays, r.tested) with
    | [], [] -> None
    | _, [] -> Some masks
    | [], _ -> Some shadows
    | _ ->
      Some
        (fun rw name i ->
          masks rw name i;
          shadows rw name i));
  (match scalars with
  | [] -> ()
  | _ ->
    b.b_state.on_assign <-
      Some
        (fun name ->
          match find_named name scalars with
          | Some c -> Bytes.set c.mask 0 '\001'
          | None -> ()));
  b

(* ready [b] for an execution on frame [fr]: a fresh time, output and
   cache, the parent's fuel, a copy of the frame's slots, and the
   block's index cell, private copies (copied in) and accumulators
   swapped in.  The loop index gets no copy-in: the construct assigns
   it at every iteration *)
let refill (st : Interp.state) (fr : Interp.frame) (r : region) (b : block) =
  let cst = b.b_state in
  Interp.Cache.reset cst.cache;
  cst.time <- 0;
  cst.steps <- st.steps;
  cst.cur_unit <- st.cur_unit;
  cst.cur_loop <- st.cur_loop;
  cst.output <- [];
  b.b_exn <- None;
  let slots = b.b_frame.slots in
  Array.blit fr.slots 0 slots 0 (Array.length slots);
  refit b.b_index fr.slots.(r.index);
  slots.(r.index) <- b.b_index.cb;
  Array.iteri
    (fun k v ->
      let src = fr.slots.(v.v_slot) and c = b.b_copies.(k) in
      (match v.v_red with
      | None ->
        refit c src;
        Storage.blit src.view c.cb.view (Storage.extent_of src)
      | Some op -> refit ~red:op c src);
      slots.(v.v_slot) <- c.cb)
    r.vars

(* blocks [0, p) of [r], refilled for frame [fr] *)
let blocks_for st fr (r : region) p =
  let have = Array.length r.blocks in
  if have < p then
    r.blocks <- Array.append r.blocks (Array.init (p - have) (fun _ -> new_block st fr r));
  let blocks = Array.sub r.blocks 0 p in
  Array.iter (refill st fr r) blocks;
  blocks

(* the region's blocks as one pool batch: block [j] runs iterations
   [start j, start (j+1)) of the static schedule the model prices *)
let run_blocks (t : t) (blocks : block array) body ~init ~step ~trips =
  let p = Array.length blocks in
  let run j =
    let b = blocks.(j) in
    try
      let idx = b.b_index.cb.view in
      for k = Parsim.block_start ~p ~n:trips j to Parsim.block_start ~p ~n:trips (j + 1) - 1 do
        List.iter (fun (_, sh) -> Shadow.begin_iteration sh) b.b_marks;
        Interp.write_int idx 0 (init + (k * step));
        Interp.charge b.b_state Interp.Cost.loop_iter;
        match Interp.exec_block b.b_state b.b_frame body with
        | Interp.Normal -> ()
        | _ ->
          (* unreachable: [body_forkable] rejects escaping control flow *)
          raise (Interp.Runtime_error "parallel region aborted by control flow")
      done
    with e -> b.b_exn <- Some (e, Printexc.get_raw_backtrace ())
  in
  ignore (Util.Pool.map ~slots:t.procs run (List.init p Fun.id) : unit list)

(* after a successful join: fold child fuel into the parent and re-check
   the budget (serial execution counts the same statements, so serial
   and parallel runs exhaust fuel on the same programs) *)
let merge_steps (st : Interp.state) (blocks : block array) =
  let base = st.steps in
  Array.iter (fun b -> st.steps <- st.steps + (b.b_state.steps - base)) blocks;
  if st.steps > st.cfg.max_steps then
    raise
      (Interp.Fuel_exhausted
         (Fmt.str "after %d statements in unit %s (parallel region)" st.steps
            st.cur_unit))

(* child PRINT lines, spliced in ascending block order (= iteration
   order under block scheduling).  [st.output] is newest-first, so
   prepending block 0's lines first leaves the highest block's lines
   at the head — exactly the serial emission order once reversed *)
let merge_output (st : Interp.state) (blocks : block array) =
  Array.iter (fun b -> st.output <- b.b_state.output @ st.output) blocks

let merge_time (st : Interp.state) (blocks : block array) =
  let slowest = Array.fold_left (fun m b -> max m b.b_state.time) 0 blocks in
  st.time <- st.time + slowest

let reraise_child_exn (blocks : block array) =
  Array.iter
    (fun b ->
      match b.b_exn with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    blocks

(* Last-value copy-out of the privates, then the deterministic reduction
   merges (shared op partial_0 op partial_1 ...), each in ascending
   block order.  Ascending order replays iteration order, so the
   surviving value of a masked private element is the one the
   highest-numbered writing iteration produced — exactly serial; only
   elements a block actually updated take part, so untouched elements
   keep their serial bit pattern. *)
let merge_vars (fr : Interp.frame) (r : region) (blocks : block array) =
  Array.iteri
    (fun k v ->
      let dst = fr.slots.(v.v_slot) in
      Array.iter
        (fun b ->
          match v.v_red with
          | None -> copy_out_masked dst b.b_copies.(k)
          | Some op -> merge_masked op dst b.b_copies.(k))
        blocks)
    r.vars

(* ------------------------------------------------------------------ *)
(* The DOALL path                                                      *)

let exec_doall (t : t) (st : Interp.state) (fr : Interp.frame) (r : region) body ~init
    ~step ~trips =
  let blocks = blocks_for st fr r (min t.procs trips) in
  run_blocks t blocks body ~init ~step ~trips;
  reraise_child_exn blocks;
  merge_time st blocks;
  merge_steps st blocks;
  merge_output st blocks;
  merge_vars fr r blocks;
  Interp.write_int fr.slots.(r.index).view 0 (init + (trips * step));
  t.stats.regions <- t.stats.regions + 1;
  t.stats.par_iters <- t.stats.par_iters + trips;
  Interp.Normal

(* ------------------------------------------------------------------ *)
(* The speculative (LRPD) path                                         *)

(* serial re-execution of the loop on the parent state: the failure
   path, byte-identical to what {!Interp.exec_do} would have done (the
   body is forkable, so no non-local exits can occur) *)
let exec_serial (st : Interp.state) (fr : Interp.frame) (d : do_loop) body
    ~init ~step ~trips =
  let idx_b = Interp.binding_for st fr d.index in
  for k = 0 to trips - 1 do
    Interp.write_int idx_b.view 0 (init + (k * step));
    Interp.charge st Interp.Cost.loop_iter;
    match Interp.exec_block st fr body with
    | Interp.Normal -> ()
    | _ -> raise (Interp.Runtime_error "parallel region aborted by control flow")
  done;
  Interp.write_int idx_b.view 0 (init + (trips * step));
  Interp.Normal

(* merge the blocks' marks of one tested array, judge the merge, and
   clear every shadow for the region's next execution *)
let shadow_verdict ((per_block, merged) : Shadow.t array * Shadow.t) =
  Array.iter (Shadow.merge_into merged) per_block;
  let v = Shadow.verdict merged in
  Shadow.clear merged;
  Array.iter Shadow.clear per_block;
  v

let exec_speculative (t : t) (st : Interp.state) (fr : Interp.frame) sid
    (r : region) (d : do_loop) body ~init ~step ~trips =
  if not r.spec_ok then None
  else begin
    t.stats.spec_attempts <- t.stats.spec_attempts + 1;
    let p = min t.procs trips in
    (* checkpoint every written array: the speculation writes them in
       place, so a failed PD test must roll them back *)
    let tested =
      List.map
        (fun a ->
          let b = fr.slots.(a.t_slot) in
          let ckpt = Storage.snapshot ?into:a.t_ckpt b.view.alloc in
          a.t_ckpt <- Some ckpt;
          let size = max 1 (Storage.extent_of b) in
          let shadows =
            match a.t_shadows with
            | Some ((per_block, merged) as sh)
              when merged.Shadow.size = size && Array.length per_block = p ->
              sh
            | _ ->
              let sh =
                (Array.init p (fun _ -> Shadow.create size), Shadow.create size)
              in
              a.t_shadows <- Some sh;
              sh
          in
          (a, ckpt, shadows))
        r.tested
    in
    let blocks = blocks_for st fr r p in
    Array.iteri
      (fun j b ->
        b.b_marks <-
          List.map (fun (a, _, (per_block, _)) -> (a.t_name, per_block.(j))) tested)
      blocks;
    run_blocks t blocks body ~init ~step ~trips;
    let child_failed = Array.exists (fun b -> b.b_exn <> None) blocks in
    let verdicts = List.map (fun (_, _, sh) -> shadow_verdict sh) tested in
    let verdict =
      if child_failed || List.mem Shadow.Not_parallel verdicts then Shadow.Not_parallel
      else if List.mem Shadow.Parallel_privatized verdicts then Shadow.Parallel_privatized
      else Shadow.Parallel
    in
    let event ~checkpoints ~after_restore =
      t.stats.events <-
        { se_loop_sid = sid; se_arrays = List.map (fun a -> a.t_name) r.tested;
          se_verdict = verdict; se_trips = trips; se_domains = p;
          se_checkpoints = checkpoints; se_after_restore = after_restore }
        :: t.stats.events
    in
    if verdict = Shadow.Parallel then begin
      (* writes already landed in the shared arrays; only the
         privatized scalars and the index need last-value copy-out *)
      merge_time st blocks;
      merge_steps st blocks;
      merge_output st blocks;
      merge_vars fr r blocks;
      Interp.write_int fr.slots.(r.index).view 0 (init + (trips * step));
      t.stats.regions <- t.stats.regions + 1;
      t.stats.par_iters <- t.stats.par_iters + trips;
      t.stats.spec_success <- t.stats.spec_success + 1;
      event ~checkpoints:[] ~after_restore:[];
      Some Interp.Normal
    end
    else begin
      (* failed speculation: a real rollback.  Child time/steps/output
         are discarded (the serial re-execution is the only run that
         counts, so fuel accounting matches a serial interpreter), and
         the event takes the checkpoints: the next attempt makes new
         ones *)
      Array.iter (fun b -> Array.iter clear_mask b.b_copies) blocks;
      let checkpoints =
        List.map
          (fun (a, ckpt, _) ->
            Storage.restore fr.slots.(a.t_slot).view.alloc ckpt;
            a.t_ckpt <- None;
            (a.t_name, ckpt))
          tested
      in
      let after_restore =
        List.map (fun a -> (a.t_name, Storage.snapshot fr.slots.(a.t_slot).view.alloc)) r.tested
      in
      t.stats.spec_failures <- t.stats.spec_failures + 1;
      let outcome = exec_serial st fr d body ~init ~step ~trips in
      event ~checkpoints ~after_restore;
      Some outcome
    end
  end

(* ------------------------------------------------------------------ *)
(* Hook and entry points                                               *)

let hook (t : t) : Interp.state -> Interp.frame -> int -> do_loop ->
    body:Interp.block -> init:int -> step:int -> trips:int ->
    Interp.outcome option =
 fun st fr sid d ~body ~init ~step ~trips ->
  let doall = d.info.par && not d.info.speculative in
  let declined () =
    t.stats.serial_loops <- t.stats.serial_loops + 1;
    None
  in
  if not (doall || d.info.speculative) then None
  else if trips < 2 then declined ()
  else begin
    let plan =
      match Hashtbl.find_opt t.plans sid with
      | Some plan -> plan
      | None ->
        let plan = make_plan t st fr sid d ~doall in
        Hashtbl.replace t.plans sid plan;
        plan
    in
    match plan with
    | Serial -> declined ()
    | Forkable r when doall ->
      prebind_slots st fr r.prebind;
      Some (exec_doall t st fr r body ~init ~step ~trips)
    | Forkable r -> (
      prebind_slots st fr r.prebind;
      match exec_speculative t st fr sid r d body ~init ~step ~trips with
      | Some o -> Some o
      | None ->
        (* unsafe scalar pattern: decline, run serially *)
        declined ())
  end

(** The capture of a finished run (same shape as {!Interp.run_full}). *)
let capture_of = Interp.capture_of

(** Execute [prog]'s main unit with annotated loops running on [procs]
    pool slots: DOALL loops fork, and loops the compiler marked
    [speculative] run under the LRPD test.  Returns the full capture
    (same shape as {!Interp.run_full}) and the runtime statistics. *)
let run_full ?cfg ?procs (prog : Program.t) : Interp.capture * stats =
  let procs =
    match procs with Some p -> max 1 p | None -> Util.Env.runtime_procs
  in
  let stats = fresh_stats () in
  if procs <= 1 then (Interp.run_full ?cfg prog, stats)
  else begin
    let st = Interp.fresh_state ?cfg prog in
    st.on_parallel_do <- Some (hook { procs; stats; plans = Hashtbl.create 16 });
    let fr = Interp.main_frame st in
    Interp.run_unit_body st fr;
    (capture_of st fr, stats)
  end
