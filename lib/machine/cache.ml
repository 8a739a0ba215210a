(** Direct-mapped data cache model.

    A deliberately small model: it exists to give the cost model a
    locality signal (stride-1 loops cheap, large-stride or scattered
    access expensive) so that code-generation differences between the
    Polaris and baseline pipelines show up in simulated time, as they
    did between Polaris and PFA on the SGI Challenge (paper §4.2).
    1024 sets of 8-word lines. *)

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
let access (t : t) addr =
  let line = addr lsr line_shift in
  let set = line land (sets - 1) in
  if t.(set) = line then true
  else begin
    t.(set) <- line;
    false
  end
