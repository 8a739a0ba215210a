(** Cost model of the PD test (paper §3.5.2–§3.5.3).

    The test itself is fully parallel and takes [O(a/p + log p)] time,
    where [a] is the number of accesses to the tested array and [p] the
    number of processors: marking piggybacks on the speculative parallel
    execution ([c_mark] per access on the executing processor) and the
    post-execution analysis reduces the shadow arrays in
    [size/p + log p] steps. *)

type cost_model = {
  mark_cost : int;        (** per access, during speculative execution *)
  analysis_per_elem : int;(** per shadow element, divided over p *)
  merge_log_cost : int;   (** per log2(p) combining step *)
  checkpoint_per_elem : int; (** saving state before speculation *)
  restore_per_elem : int; (** restoring state on failure *)
}

let default_cost =
  { mark_cost = 2; analysis_per_elem = 2; merge_log_cost = 24;
    checkpoint_per_elem = 1; restore_per_elem = 1 }

let log2i n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n / 2) in
  go 0 n

(** Extra time added to the parallel execution by marking [accesses]
    accesses on [p] processors. *)
let marking_time cm ~accesses ~p = cm.mark_cost * accesses / max 1 p

(** Time of the post-execution analysis over a shadow of [size]
    elements on [p] processors: a/p + log p shape. *)
let analysis_time cm ~size ~p =
  (cm.analysis_per_elem * size / max 1 p) + (cm.merge_log_cost * log2i (max 1 p))

let checkpoint_time cm ~size ~p = cm.checkpoint_per_elem * size / max 1 p
let restore_time cm ~size ~p = cm.restore_per_elem * size / max 1 p
