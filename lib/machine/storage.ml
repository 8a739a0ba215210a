(** Memory model of the simulated machine.

    Every allocation is a typed flat array with a unique id; multi-dim
    Fortran arrays are laid out column-major on top of it.  Views (an
    allocation plus an element offset) implement Fortran's by-reference
    argument passing, including passing [A(5)] as the start of a dummy
    array.  COMMON blocks use named association: each (block, member)
    pair denotes one global allocation, shared by every program unit
    that declares it (the test suite declares commons consistently, so
    this coincides with F77 storage association for our inputs).

    Concurrency ({!Parexec}): allocations may be written by several
    OCaml domains at once, but only at {e disjoint} element indices —
    the executor forks a loop only when its iterations were proven (or
    are being speculatively tested) to write disjoint elements, and
    block scheduling gives each domain a contiguous index range.
    Element writes here are plain [Array.unsafe_set]-style stores of
    immediate ints/bools or boxed-float array slots, all word-sized;
    under the OCaml 5 memory model, racing accesses to {e distinct}
    array cells are independent non-atomic locations, so disjoint
    writes neither tear nor interfere, and the join at region end
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

(** [write_elem v i (Value.Int n)] without boxing [n] (DO indices). *)
let write_int (v : view) i n =
  let j = v.off + i in
  match v.alloc.data with
  | Farr a ->
    if j < 0 || j >= Array.length a then fault "write out of bounds (%d)" j;
    a.(j) <- float_of_int n
  | Iarr a ->
    if j < 0 || j >= Array.length a then fault "write out of bounds (%d)" j;
    a.(j) <- n
  | Barr a ->
    if j < 0 || j >= Array.length a then fault "write out of bounds (%d)" j;
    a.(j) <- Value.to_bool (Value.Int n)

(** Snapshot an allocation's contents (for speculative rollback). *)
let snapshot (a : alloc) : data =
  match a.data with
  | Farr x -> Farr (Array.copy x)
  | Iarr x -> Iarr (Array.copy x)
  | Barr x -> Barr (Array.copy x)

(** Restore a snapshot taken with {!snapshot}. *)
let restore (a : alloc) (s : data) =
  match (a.data, s) with
  | Farr dst, Farr src -> Array.blit src 0 dst 0 (Array.length dst)
  | Iarr dst, Iarr src -> Array.blit src 0 dst 0 (Array.length dst)
  | Barr dst, Barr src -> Array.blit src 0 dst 0 (Array.length dst)
  | _ -> fault "snapshot type mismatch"

(** Global machine address of element [i] of a view, for the cache
    model: allocations are given disjoint 8-byte-word address ranges. *)
let address (v : view) i = (v.alloc.aid * (1 lsl 24)) + v.off + i
