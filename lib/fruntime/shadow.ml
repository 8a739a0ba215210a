(** Shadow arrays for the PD test (paper §3.5.2).

    One shadow structure per tested shared array [A]:
    - [w] (the paper's A_w): element written by some iteration;
    - [r] (A_r): element read by some iteration that never wrote it
      during that iteration;
    - [np] (A_np): element read before being written within the same
      iteration — privatization would read an uninitialized private
      copy;
    - [wa]: total count of first-per-iteration writes; [wa <> marks(w)]
      means some element was written by more than one iteration (an
      output dependence, removable by privatization). *)

type t = {
  size : int;
  w : Bytes.t;
  r : Bytes.t;
  np : Bytes.t;
  mutable wa : int;
  iter_written : Bytes.t;        (** per-iteration: written flags *)
  iter_pending : Bytes.t;        (** per-iteration: read-before-write *)
  mutable touched : int list;    (** elements touched this iteration *)
}

let create size =
  { size;
    w = Bytes.make size '\000';
    r = Bytes.make size '\000';
    np = Bytes.make size '\000';
    wa = 0;
    iter_written = Bytes.make size '\000';
    iter_pending = Bytes.make size '\000';
    touched = [] }

let mark b i = Bytes.set b i '\001'
let marked b i = Bytes.get b i <> '\000'

(* flush the per-iteration state: pending reads never satisfied by a
   later write of the same iteration become A_r marks *)
let end_iteration t =
  List.iter
    (fun i ->
      if marked t.iter_pending i && not (marked t.iter_written i) then mark t.r i;
      Bytes.set t.iter_written i '\000';
      Bytes.set t.iter_pending i '\000')
    t.touched;
  t.touched <- []

(** Start marking a new iteration (also finishes the previous one). *)
let begin_iteration t = end_iteration t

(** Record a write of element [i] by the current iteration. *)
let write t i =
  if i >= 0 && i < t.size then
    if not (marked t.iter_written i) then begin
      if marked t.iter_pending i then mark t.np i (* read before write *);
      t.wa <- t.wa + 1;
      mark t.w i;
      mark t.iter_written i;
      t.touched <- i :: t.touched
    end

(** Record a read of element [i] by the current iteration. *)
let read t i =
  if i >= 0 && i < t.size then
    if (not (marked t.iter_written i)) && not (marked t.iter_pending i) then begin
      mark t.iter_pending i;
      t.touched <- i :: t.touched
    end

(** Merge the marks of [src] into [dst] (both are flushed first).

    Under block scheduling each domain marks a private shadow for its
    own iterations; [w]/[r]/[np] are per-(element, iteration) facts
    aggregated by OR and [wa] counts first-per-iteration writes, so
    OR-ing the bitmaps and summing [wa] yields exactly the marks a
    single shadow would have collected over the whole iteration space
    (paper §3.5.2's "merge phase", O(size) per processor). *)
let merge_into dst src =
  if dst.size <> src.size then invalid_arg "Shadow.merge_into: size mismatch";
  end_iteration dst;
  end_iteration src;
  for i = 0 to dst.size - 1 do
    if marked src.w i then mark dst.w i;
    if marked src.r i then mark dst.r i;
    if marked src.np i then mark dst.np i
  done;
  dst.wa <- dst.wa + src.wa

(** Forget every mark: afterwards [t] behaves as a fresh {!create}. *)
let clear t =
  end_iteration t;
  Bytes.fill t.w 0 t.size '\000';
  Bytes.fill t.r 0 t.size '\000';
  Bytes.fill t.np 0 t.size '\000';
  t.wa <- 0

(** Post-execution analysis of the marks (paper §3.5.2). *)
type analysis = {
  flow_or_anti : bool;     (** any(A_w and A_r) *)
  not_privatizable : bool; (** any(A_w and A_np) *)
  output_deps : bool;      (** wa <> marks(A_w) *)
  marks : int;
  total_writes : int;
  total_accesses : int;    (** accesses fed to the shadow (for the cost
                               model O(a/p + log p)) *)
}

(* total accesses are counted by the caller; keep a cell here *)
let analyze ?(total_accesses = 0) t : analysis =
  end_iteration t;
  let marks = ref 0 in
  let flow = ref false in
  let np = ref false in
  for i = 0 to t.size - 1 do
    if marked t.w i then begin
      incr marks;
      if marked t.r i then flow := true;
      if marked t.np i then np := true
    end
  done;
  { flow_or_anti = !flow;
    not_privatizable = !np;
    output_deps = t.wa <> !marks;
    marks = !marks;
    total_writes = t.wa;
    total_accesses }

(** Verdict for a loop speculatively executed as a DOALL. *)
type verdict =
  | Parallel               (** fully parallel as-is *)
  | Parallel_privatized    (** parallel with the tested array privatized *)
  | Not_parallel

let verdict_of_analysis (a : analysis) : verdict =
  if a.flow_or_anti then Not_parallel
  else if a.not_privatizable then
    (* element read-before-write and written only within single
       iterations is harmless; with multiple writers privatization
       would be required but is invalid *)
    if a.output_deps then Not_parallel else Parallel
  else if a.output_deps then Parallel_privatized
  else Parallel

let verdict ?total_accesses t = verdict_of_analysis (analyze ?total_accesses t)
