(** Memory model of the simulated machine.

    Every allocation is a typed flat array with a unique id; multi-dim
    Fortran arrays are laid out column-major on top of it.  Views (an
    allocation plus an element offset) implement Fortran's by-reference
    argument passing, including passing [A(5)] as the start of a dummy
    array.  COMMON blocks use named association: each (block, member)
    pair denotes one global allocation, shared by every program unit
    that declares it (the test suite declares commons consistently, so
    this coincides with F77 storage association for our inputs).

    Elements are read and written here as boxed [Value.t]s
    ({!read_elem}, {!write_elem}).  The lowered executor's typed reads
    and writes, which move unboxed values, and its cache model, which
    gives allocation [aid] the word addresses from [aid * 2^24], live in
    [Interp], inlined into its closures.

    Concurrency ({!Parexec}): allocations may be written by several
    OCaml domains at once, but only at {e disjoint} element indices —
    the executor forks a loop only when its iterations were proven (or
    are being speculatively tested) to write disjoint elements, and
    block scheduling gives each domain a contiguous index range.
    Element writes here are plain [Array.unsafe_set]-style stores of
    immediate ints/bools or the unboxed doubles of a [float array],
    all word-sized; under the OCaml 5 memory model, racing accesses to
    {e distinct} array cells are independent non-atomic locations, so
    disjoint writes neither tear nor interfere, and the join at region end
    (domain termination) publishes every child store to the parent.
    No location is written by two domains in the same region — scalars
    are privatized per-domain and merged by the parent after the
    join. *)

open Fir

type data =
  | Farr of float array
  | Iarr of int array
  | Barr of bool array

type alloc = {
  aid : int;            (** unique allocation id, used by the cache model *)
  data : data;
}

type view = {
  alloc : alloc;
  off : int;            (** element offset of the view base *)
}

(** A bound variable: a view plus the evaluated dimension info
    (per-dimension lower bound and extent).  [dims = []] is a scalar. *)
type binding = {
  view : view;
  dims : (int * int) list;   (** (lower, extent); extent < 0 = assumed size *)
  elem : Ast.base_type;
}

exception Fault of string

let fault fmt = Fmt.kstr (fun s -> raise (Fault s)) fmt

(* atomic: the validation oracle interprets program copies on several
   domains at once; aids only need uniqueness, never a specific order *)
let alloc_counter = Atomic.make 0

let size_of_data = function
  | Farr a -> Array.length a
  | Iarr a -> Array.length a
  | Barr a -> Array.length a

let allocate (typ : Ast.base_type) n : alloc =
  let aid = Atomic.fetch_and_add alloc_counter 1 + 1 in
  let data =
    match typ with
    | Ast.Integer -> Iarr (Array.make n 0)
    | Ast.Real | Ast.Double_precision | Ast.Complex -> Farr (Array.make n 0.0)
    | Ast.Logical -> Barr (Array.make n false)
    | Ast.Character -> Farr (Array.make n 0.0)
  in
  { aid; data }

let scalar_binding typ : binding =
  { view = { alloc = allocate typ 1; off = 0 }; dims = []; elem = typ }

let array_binding typ dims : binding =
  let extent = List.fold_left (fun acc (_, e) -> acc * max e 0) 1 dims in
  { view = { alloc = allocate typ extent; off = 0 }; dims; elem = typ }

(** Column-major linear index of [subs] within [dims], relative to the
    view base.  The last dimension's extent is not needed (hence [*]
    assumed-size arrays work). *)
let linear_index (dims : (int * int) list) (subs : int list) =
  let rec go dims subs stride acc =
    match (dims, subs) with
    | [], [] -> acc
    | (lo, ext) :: dtl, s :: stl ->
      let acc = acc + ((s - lo) * stride) in
      go dtl stl (stride * max ext 1) acc
    | _ -> fault "subscript count mismatch"
  in
  go dims subs 1 0

(** Total element count of the view's array if fully known. *)
let extent_of (b : binding) =
  if b.dims = [] then 1
  else if List.exists (fun (_, e) -> e < 0) b.dims then
    size_of_data b.view.alloc.data - b.view.off
  else List.fold_left (fun acc (_, e) -> acc * e) 1 b.dims

let read_elem (v : view) i : Value.t =
  let j = v.off + i in
  match v.alloc.data with
  | Farr a ->
    if j < 0 || j >= Array.length a then fault "read out of bounds (%d)" j;
    Value.Real a.(j)
  | Iarr a ->
    if j < 0 || j >= Array.length a then fault "read out of bounds (%d)" j;
    Value.Int a.(j)
  | Barr a ->
    if j < 0 || j >= Array.length a then fault "read out of bounds (%d)" j;
    Value.Bool a.(j)

let write_elem (v : view) i (x : Value.t) =
  let j = v.off + i in
  match v.alloc.data with
  | Farr a ->
    if j < 0 || j >= Array.length a then fault "write out of bounds (%d)" j;
    a.(j) <- Value.to_float x
  | Iarr a ->
    if j < 0 || j >= Array.length a then fault "write out of bounds (%d)" j;
    a.(j) <- Value.to_int x
  | Barr a ->
    if j < 0 || j >= Array.length a then fault "write out of bounds (%d)" j;
    a.(j) <- Value.to_bool x

(** The fault of a typed read ([Interp]'s [read_int], [read_bool] and
    [read_float]) that finds an allocation of another class. *)
let class_fault what = fault "storage class: %s read of another class's allocation" what

(** Elements [0, n) of [v] lie inside its allocation. *)
let in_bounds (v : view) n = v.off >= 0 && v.off + n <= size_of_data v.alloc.data

(** Copy elements [0, n) of [src] into [dst], a different allocation:
    [n] {!read_elem}/{!write_elem} pairs, done as one [Array.blit] when
    both have the same class and every element is in bounds. *)
let blit (src : view) (dst : view) n =
  match (src.alloc.data, dst.alloc.data) with
  | Farr s, Farr d when in_bounds src n && in_bounds dst n ->
    Array.blit s src.off d dst.off n
  | Iarr s, Iarr d when in_bounds src n && in_bounds dst n ->
    Array.blit s src.off d dst.off n
  | Barr s, Barr d when in_bounds src n && in_bounds dst n ->
    Array.blit s src.off d dst.off n
  | _ ->
    for i = 0 to n - 1 do
      write_elem dst i (read_elem src i)
    done

(** Elements [0, n) of [v], copied into a fresh array of its class;
    faults as {!read_elem} does at the first element out of bounds. *)
let sub (v : view) n : data =
  let n = max n 0 and size = size_of_data v.alloc.data in
  if n > 0 && not (in_bounds v n) then
    fault "read out of bounds (%d)" (if v.off < 0 || v.off >= size then v.off else size);
  let off = if n = 0 then 0 else v.off in
  match v.alloc.data with
  | Farr a -> Farr (Array.sub a off n)
  | Iarr a -> Iarr (Array.sub a off n)
  | Barr a -> Barr (Array.sub a off n)

(** Snapshot an allocation's contents (for speculative rollback), into
    [into] when that has the allocation's class and size. *)
let snapshot ?into (a : alloc) : data =
  match (into, a.data) with
  | Some (Farr d as s), Farr x when Array.length d = Array.length x ->
    Array.blit x 0 d 0 (Array.length x);
    s
  | Some (Iarr d as s), Iarr x when Array.length d = Array.length x ->
    Array.blit x 0 d 0 (Array.length x);
    s
  | Some (Barr d as s), Barr x when Array.length d = Array.length x ->
    Array.blit x 0 d 0 (Array.length x);
    s
  | _, Farr x -> Farr (Array.copy x)
  | _, Iarr x -> Iarr (Array.copy x)
  | _, Barr x -> Barr (Array.copy x)

(** Restore a snapshot taken with {!snapshot}. *)
let restore (a : alloc) (s : data) =
  match (a.data, s) with
  | Farr dst, Farr src -> Array.blit src 0 dst 0 (Array.length dst)
  | Iarr dst, Iarr src -> Array.blit src 0 dst 0 (Array.length dst)
  | Barr dst, Barr src -> Array.blit src 0 dst 0 (Array.length dst)
  | _ -> fault "snapshot type mismatch"
