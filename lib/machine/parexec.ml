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
    - privatized names and reduction variables are rebound to fresh
      per-block allocations and merged after the batch, in ascending
      block order — a deterministic order that equals iteration order
      under block scheduling.

    Speculative (LRPD) loops run against per-block shadow arrays
    supplied by a {!spec_backend} (implemented by [Fruntime.Specexec];
    this library cannot depend on [Fruntime]).  The shared written
    arrays are checkpointed with {!Storage.snapshot} before the fork;
    a failed PD test restores them with {!Storage.restore} and re-runs
    the loop sequentially on the parent state. *)

open Fir
open Ast

(* ------------------------------------------------------------------ *)
(* Speculation backend interface                                       *)

(** Per-domain shadow marker for one tested array. *)
type shadow_inst = {
  s_read : int -> unit;
  s_write : int -> unit;
  s_iter_begin : unit -> unit;  (** called at the start of each iteration *)
}

type spec_verdict =
  | Spec_parallel      (** fully parallel as executed: results stand *)
  | Spec_privatize     (** output deps: needed privatization — results
                           are discarded like a failure, the loop
                           re-runs sequentially *)
  | Spec_fail          (** flow/anti dependence: restore and re-run *)

(** [sb_make ~size ~domains] returns the per-domain marker factory and
    the finalizer that merges the [domains] shadows and renders the
    verdict. *)
type spec_backend = {
  sb_make :
    size:int -> domains:int -> (int -> shadow_inst) * (unit -> spec_verdict);
}

(** One speculative region instance, for tests and reporting. *)
type spec_event = {
  se_loop_sid : int;
  se_arrays : string list;                     (** tested (written) arrays *)
  se_verdict : spec_verdict;
  se_trips : int;
  se_domains : int;
  se_checkpoints : (string * Storage.data) list;
      (** entry snapshots of every tested array *)
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
      (** per-DOALL-region privatization/reduction records, newest first *)
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

(* fresh per-domain allocation shaped like [b], copied in from it *)
let private_binding ?(copy_in = true) (b : Storage.binding) : Storage.binding =
  let n = max 1 (Storage.extent_of b) in
  let pb =
    { Storage.view = { alloc = Storage.allocate b.elem n; off = 0 };
      dims = b.dims; elem = b.elem }
  in
  if copy_in then Storage.blit b.view pb.view (Storage.extent_of b);
  pb

(* fill a fresh accumulator with [op]'s identity; its allocation's class
   is its element type's *)
let fill_identity (pb : Storage.binding) (op : reduction_op) =
  let n = Storage.extent_of pb in
  match pb.view.alloc.data with
  | Storage.Iarr a ->
    Array.fill a 0 n
      (match op with Rsum -> 0 | Rprod -> 1 | Rmax -> min_int | Rmin -> max_int)
  | Storage.Farr a ->
    Array.fill a 0 n
      (match op with
      | Rsum -> 0.0
      | Rprod -> 1.0
      | Rmax -> neg_infinity
      | Rmin -> infinity)
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

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)

type t = {
  procs : int;                  (** the pool slots a region runs on *)
  spec : spec_backend option;
  stats : stats;
}

(* per-block execution context *)
type child = {
  c_state : Interp.state;
  c_frame : Interp.frame;
  c_masks : (string * Bytes.t) list;
      (** per-name written-element masks (privates + reduction vars) *)
  c_lo : int;
  c_hi : int;
  mutable c_exn : (exn * Printexc.raw_backtrace) option;
}

let child_state (st : Interp.state) : Interp.state =
  { st with
    cache = Cache.create ();
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

(* build one child: copy the frame's slots, rebind [privates] to fresh
   per-domain copies (with copy-in) and reduction vars to identity
   accumulators; install the write masks.  Array writes reach the masks
   through [on_access], scalar writes and DO-index updates through
   [on_assign] (an assignment of the other kind faults before its hook
   fires, and [Fir.Consistency] rejects an array DO index), so each
   hook is installed only when a mask of its kind exists *)
let make_child (st : Interp.state) (fr : Interp.frame) (d : do_loop)
    ~(privates : string list) ~(reductions : reduction list) ~lo ~hi : child =
  let cst = child_state st in
  let cfr = { fr with Interp.slots = Array.copy fr.Interp.slots } in
  let masks = ref [] in
  let track name (b : Storage.binding) =
    masks := (name, b, Bytes.make (max 1 (Storage.extent_of b)) '\000') :: !masks
  in
  (* the loop index: always private, no copy-in (the construct assigns
     it at every iteration) *)
  Interp.rebind cfr d.index
    (private_binding ~copy_in:false (Interp.binding_for st fr d.index));
  List.iter
    (fun name ->
      match Interp.lookup cfr name with
      | Some b ->
        let pb = private_binding b in
        Interp.rebind cfr name pb;
        track name pb
      | None -> ())
    privates;
  List.iter
    (fun (r : reduction) ->
      match Interp.lookup cfr r.red_var with
      | Some b ->
        let pb = private_binding ~copy_in:false b in
        fill_identity pb r.red_op;
        Interp.rebind cfr r.red_var pb;
        track r.red_var pb
      | None -> ())
    reductions;
  let of_kind array =
    List.filter_map
      (fun (name, (b : Storage.binding), m) ->
        if (b.dims <> []) = array then Some (name, m) else None)
      !masks
  in
  (match of_kind true with
  | [] -> ()
  | arrays ->
    cst.on_access <-
      Some
        (fun rw name i ->
          match rw with
          | Interp.W -> (
            match find_named name arrays with
            | Some m when i >= 0 && i < Bytes.length m -> Bytes.set m i '\001'
            | _ -> ())
          | Interp.R -> ()));
  (match of_kind false with
  | [] -> ()
  | scalars ->
    cst.on_assign <-
      Some
        (fun name ->
          match find_named name scalars with
          | Some m -> Bytes.set m 0 '\001'
          | None -> ()));
  { c_state = cst; c_frame = cfr;
    c_masks = List.map (fun (name, _, m) -> (name, m)) !masks;
    c_lo = lo; c_hi = hi; c_exn = None }

(* iterations [c_lo, c_hi) of [d] on child [c]; [iter_begin] lets the
   speculative path flush shadow iteration state *)
let exec_child_block (c : child) (d : do_loop) body ~init ~step
    ?(iter_begin = fun _ -> ()) () =
  try
    let cst = c.c_state and cfr = c.c_frame in
    let idx_b = Interp.binding_for cst cfr d.index in
    let outcome = ref Interp.Normal in
    (try
       for k = c.c_lo to c.c_hi - 1 do
         iter_begin k;
         Storage.write_int idx_b.view 0 (init + (k * step));
         Interp.charge cst Interp.Cost.loop_iter;
         match Interp.exec_block cst cfr body with
         | Interp.Normal -> ()
         | o ->
           outcome := o;
           raise Exit
       done
     with Exit -> ());
    match !outcome with
    | Interp.Normal -> ()
    | _ ->
      (* unreachable: [body_forkable] rejects escaping control flow *)
      raise (Interp.Runtime_error "parallel region aborted by control flow")
  with e -> c.c_exn <- Some (e, Printexc.get_raw_backtrace ())

(* after a successful join: fold child fuel into the parent and re-check
   the budget (serial execution counts the same statements, so serial
   and parallel runs exhaust fuel on the same programs) *)
let merge_steps (st : Interp.state) (children : child array) =
  let base = st.steps in
  Array.iter (fun c -> st.steps <- st.steps + (c.c_state.steps - base)) children;
  if st.steps > st.cfg.max_steps then
    raise
      (Interp.Fuel_exhausted
         (Fmt.str "after %d statements in unit %s (parallel region)" st.steps
            st.cur_unit))

(* child PRINT lines, spliced in ascending domain order (= iteration
   order under block scheduling).  [st.output] is newest-first, so
   prepending domain 0's lines first leaves the highest domain's lines
   at the head — exactly the serial emission order once reversed *)
let merge_output (st : Interp.state) (children : child array) =
  Array.iter (fun c -> st.output <- c.c_state.output @ st.output) children

let merge_time (st : Interp.state) (children : child array) =
  let slowest = Array.fold_left (fun m c -> max m c.c_state.time) 0 children in
  st.time <- st.time + slowest

let reraise_child_exn (children : child array) =
  Array.iter
    (fun c ->
      match c.c_exn with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    children

(* Masked element loops over a parent binding [dst] and a child's
   private copy [src].  They visit the elements [i] of [dst] below the
   mask's length that the mask marks, as typed loops over the two
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

(* last-value copy-out of one child's private copy *)
let copy_out_masked (dst : Storage.binding) (src : Storage.binding) mask =
  let d0 = dst.view.off and s0 = src.view.off in
  match (masked_length dst src mask, dst.view.alloc.data, src.view.alloc.data) with
  | Some n, Storage.Farr d, Storage.Farr s ->
    for i = 0 to n - 1 do
      if Bytes.unsafe_get mask i <> '\000' then d.(d0 + i) <- s.(s0 + i)
    done
  | Some n, Storage.Iarr d, Storage.Iarr s ->
    for i = 0 to n - 1 do
      if Bytes.unsafe_get mask i <> '\000' then d.(d0 + i) <- s.(s0 + i)
    done
  | Some n, Storage.Barr d, Storage.Barr s ->
    for i = 0 to n - 1 do
      if Bytes.unsafe_get mask i <> '\000' then d.(d0 + i) <- s.(s0 + i)
    done
  | _ ->
    masked_boxed dst mask (fun i ->
        Storage.write_elem dst.view i (Storage.read_elem src.view i))

(* [dst op= src] over one child's accumulator *)
let merge_masked (op : reduction_op) (dst : Storage.binding) (src : Storage.binding)
    mask =
  let d0 = dst.view.off and s0 = src.view.off in
  match (masked_length dst src mask, dst.view.alloc.data, src.view.alloc.data) with
  | Some n, Storage.Farr d, Storage.Farr s ->
    for i = 0 to n - 1 do
      if Bytes.unsafe_get mask i <> '\000' then begin
        let x = d.(d0 + i) and y = s.(s0 + i) in
        d.(d0 + i) <-
          (match op with
          | Rsum -> x +. y
          | Rprod -> x *. y
          | Rmax -> if x >= y then x else y
          | Rmin -> if x <= y then x else y)
      end
    done
  | Some n, Storage.Iarr d, Storage.Iarr s ->
    for i = 0 to n - 1 do
      if Bytes.unsafe_get mask i <> '\000' then begin
        let x = d.(d0 + i) and y = s.(s0 + i) in
        d.(d0 + i) <-
          (match op with
          | Rsum -> x + y
          | Rprod -> x * y
          | Rmax -> if x >= y then x else y
          | Rmin -> if x <= y then x else y)
      end
    done
  | _ ->
    masked_boxed dst mask (fun i ->
        Storage.write_elem dst.view i
          (merge_value op (Storage.read_elem dst.view i) (Storage.read_elem src.view i)))

(* last-value copy-out: ascending domain order replays iteration order,
   so the surviving value of every masked element is the one the
   highest-numbered writing iteration produced — exactly serial *)
let copy_out_privates (fr : Interp.frame) (privates : string list)
    (children : child array) =
  List.iter
    (fun name ->
      match Interp.lookup fr name with
      | None -> ()
      | Some dst ->
        Array.iter
          (fun c ->
            match (Interp.lookup c.c_frame name, find_named name c.c_masks) with
            | Some src, Some mask -> copy_out_masked dst src mask
            | _ -> ())
          children)
    privates

(* deterministic reduction merge: shared op partial_0 op partial_1 ...
   in ascending domain order; only elements the domain actually updated
   participate (the mask), so untouched elements keep their serial
   bit pattern *)
let merge_reductions (fr : Interp.frame) (reductions : reduction list)
    (children : child array) =
  List.iter
    (fun (r : reduction) ->
      match Interp.lookup fr r.red_var with
      | None -> ()
      | Some dst ->
        Array.iter
          (fun c ->
            match (Interp.lookup c.c_frame r.red_var, find_named r.red_var c.c_masks) with
            | Some src, Some mask -> merge_masked r.red_op dst src mask
            | _ -> ())
          children)
    reductions

(* ------------------------------------------------------------------ *)
(* The DOALL path                                                      *)

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

let exec_doall (t : t) (st : Interp.state) (fr : Interp.frame) sid
    (d : do_loop) body ~init ~step ~trips =
  let p = min t.procs trips in
  (* pre-bind every name the region can touch: after this, no child
     lookup mutates shared tables *)
  List.iter (fun n -> ignore (Interp.binding_for st fr n)) (loop_names d);
  let privates =
    doall_private_set
      ~is_array:(fun v -> (Interp.binding_for st fr v).dims <> [])
      d
  in
  let children =
    Array.init p (fun j ->
        make_child st fr d ~privates ~reductions:d.info.reductions
          ~lo:(Parsim.block_start ~p ~n:trips j)
          ~hi:(Parsim.block_start ~p ~n:trips (j + 1)))
  in
  ignore
    (Util.Pool.map ~slots:t.procs
       (fun c -> exec_child_block c d body ~init ~step ())
       (Array.to_list children)
      : unit list);
  reraise_child_exn children;
  merge_time st children;
  merge_steps st children;
  merge_output st children;
  copy_out_privates fr privates children;
  merge_reductions fr d.info.reductions children;
  let idx_b = Interp.binding_for st fr d.index in
  Storage.write_int idx_b.view 0 (init + (trips * step));
  t.stats.regions <- t.stats.regions + 1;
  t.stats.par_iters <- t.stats.par_iters + trips;
  t.stats.region_infos <-
    { ri_sid = sid; ri_index = d.index; ri_privates = privates;
      ri_lastprivates =
        List.filter (fun v -> List.mem v privates) d.info.lastprivates;
      ri_reductions =
        List.map (fun (r : reduction) -> (r.red_var, r.red_op))
          d.info.reductions }
    :: t.stats.region_infos;
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
    Storage.write_int idx_b.view 0 (init + (k * step));
    Interp.charge st Interp.Cost.loop_iter;
    match Interp.exec_block st fr body with
    | Interp.Normal -> ()
    | _ -> raise (Interp.Runtime_error "parallel region aborted by control flow")
  done;
  Storage.write_int idx_b.view 0 (init + (trips * step));
  Interp.Normal

let exec_speculative (t : t) (backend : spec_backend) (st : Interp.state)
    (fr : Interp.frame) sid (d : do_loop) body ~init ~step ~trips =
  let p = min t.procs trips in
  List.iter (fun n -> ignore (Interp.binding_for st fr n)) (loop_names d);
  let written = Stmt.assigned_names d.body in
  let arrays, scalars =
    List.partition
      (fun v -> (Interp.binding_for st fr v).dims <> [])
      (List.filter (fun v -> not (String.equal v d.index)) written)
  in
  if not (List.for_all (scalar_privatizable d.body) scalars) then None
  else begin
    t.stats.spec_attempts <- t.stats.spec_attempts + 1;
    (* checkpoint every written array: the speculation writes them in
       place, so a failed PD test must roll them back *)
    let tested =
      List.map
        (fun name ->
          let b = Interp.binding_for st fr name in
          (name, b, Storage.snapshot b.view.alloc))
        arrays
    in
    (* per-array, per-domain shadow markers *)
    let shadows =
      List.map
        (fun (name, (b : Storage.binding), _) ->
          let make, finalize =
            backend.sb_make ~size:(max 1 (Storage.extent_of b)) ~domains:p
          in
          (name, make, finalize))
        tested
    in
    let children =
      Array.init p (fun j ->
          let c =
            make_child st fr d ~privates:scalars ~reductions:[]
              ~lo:(Parsim.block_start ~p ~n:trips j)
              ~hi:(Parsim.block_start ~p ~n:trips (j + 1))
          in
          let insts = List.map (fun (name, make, _) -> (name, make j)) shadows in
          let masks_hook = c.c_state.on_access in
          c.c_state.on_access <-
            Some
              (fun rw name i ->
                (match masks_hook with Some f -> f rw name i | None -> ());
                match find_named name insts with
                | Some inst -> (
                  match rw with
                  | Interp.R -> inst.s_read i
                  | Interp.W -> inst.s_write i)
                | None -> ());
          (c, insts))
    in
    ignore
      (Util.Pool.map ~slots:t.procs
         (fun (c, insts) ->
           exec_child_block c d body ~init ~step
             ~iter_begin:(fun _ ->
               List.iter (fun (_, inst) -> inst.s_iter_begin ()) insts)
             ())
         (Array.to_list children)
        : unit list);
    let children = Array.map fst children in
    let child_failed = Array.exists (fun c -> c.c_exn <> None) children in
    let verdicts = List.map (fun (_, _, finalize) -> finalize ()) shadows in
    let verdict =
      if child_failed || List.mem Spec_fail verdicts then Spec_fail
      else if List.mem Spec_privatize verdicts then Spec_privatize
      else Spec_parallel
    in
    let success = verdict = Spec_parallel in
    let after_restore = ref [] in
    let outcome =
      if success then begin
        (* writes already landed in the shared arrays; only the
           privatized scalars and the index need last-value copy-out *)
        merge_time st children;
        merge_steps st children;
        merge_output st children;
        copy_out_privates fr scalars children;
        let idx_b = Interp.binding_for st fr d.index in
        Storage.write_int idx_b.view 0 (init + (trips * step));
        t.stats.regions <- t.stats.regions + 1;
        t.stats.par_iters <- t.stats.par_iters + trips;
        t.stats.spec_success <- t.stats.spec_success + 1;
        Interp.Normal
      end
      else begin
        (* failed speculation: a real rollback.  Child time/steps/output
           are discarded (the serial re-execution is the only run that
           counts, so fuel accounting matches a serial interpreter) *)
        List.iter
          (fun (_, (b : Storage.binding), snap) ->
            Storage.restore b.view.alloc snap)
          tested;
        after_restore :=
          List.map
            (fun (name, (b : Storage.binding), _) ->
              (name, Storage.snapshot b.view.alloc))
            tested;
        t.stats.spec_failures <- t.stats.spec_failures + 1;
        exec_serial st fr d body ~init ~step ~trips
      end
    in
    t.stats.events <-
      { se_loop_sid = sid;
        se_arrays = List.map (fun (n, _, _) -> n) tested;
        se_verdict = verdict;
        se_trips = trips;
        se_domains = p;
        se_checkpoints = List.map (fun (n, _, snap) -> (n, snap)) tested;
        se_after_restore = !after_restore }
      :: t.stats.events;
    Some outcome
  end

(* ------------------------------------------------------------------ *)
(* Hook and entry points                                               *)

let hook (t : t) : Interp.state -> Interp.frame -> int -> do_loop ->
    body:Interp.block -> init:int -> step:int -> trips:int ->
    Interp.outcome option =
 fun st fr sid d ~body ~init ~step ~trips ->
  let doall = d.info.par && not d.info.speculative in
  let speculative = d.info.speculative && t.spec <> None in
  if (not doall) && not speculative then None
  else if trips < 2 || t.procs < 2 then begin
    t.stats.serial_loops <- t.stats.serial_loops + 1;
    None
  end
  else if not (body_forkable st.prog d) then begin
    t.stats.serial_loops <- t.stats.serial_loops + 1;
    None
  end
  else if doall then
    Some (exec_doall t st fr sid d body ~init ~step ~trips)
  else begin
    match t.spec with
    | Some backend -> (
      match exec_speculative t backend st fr sid d body ~init ~step ~trips with
      | Some o -> Some o
      | None ->
        (* unsafe scalar pattern: decline, run serially *)
        t.stats.serial_loops <- t.stats.serial_loops + 1;
        None)
    | None -> None
  end

(** The capture of a finished run (same shape as {!Interp.run_full}). *)
let capture_of = Interp.capture_of

(** Execute [prog]'s main unit with annotated loops running on [procs]
    pool slots; returns the full capture (same shape as
    {!Interp.run_full}) and the runtime statistics.  [spec] enables
    real LRPD speculation for loops the compiler marked [speculative];
    without it they run serially. *)
let run_full ?cfg ?procs ?spec (prog : Program.t) : Interp.capture * stats =
  let procs =
    match procs with Some p -> max 1 p | None -> Util.Env.runtime_procs
  in
  let stats = fresh_stats () in
  if procs <= 1 then (Interp.run_full ?cfg prog, stats)
  else begin
    let st = Interp.fresh_state ?cfg prog in
    st.on_parallel_do <- Some (hook { procs; spec; stats });
    let fr = Interp.main_frame st in
    Interp.run_unit_body st fr;
    (capture_of st fr, stats)
  end
