(** First-class pass identities (the Juvix [TransformationId] pattern).

    Every pass in [lib/passes] is one constructor here, with its
    metadata — the guarded-pass name the observer and the validation
    oracle see, the analyses it declares it consumes (the reuse
    ledger), and the fail-safe capability its guard disables when it
    faults.  {!all} is the one pass order: {!Pipeline.run} walks it,
    dispatching on these ids, and [polaris list-passes] prints it.
    Adding a pass means adding a constructor and one dispatch arm —
    nothing else in the spine changes. *)

type t =
  | Inline       (** §3.1 inline expansion *)
  | Constprop    (** constant/copy propagation, first round *)
  | Induction    (** §3.2 induction-variable substitution *)
  | Constprop2   (** second propagation round (the TRFD X=X0 cleanup) *)
  | Deadcode     (** dead scalar-assignment cleanup *)
  | Parallelize  (** dependence/privatization/reduction analysis driver *)

(** Every pass, in the order {!Pipeline.run} runs them (paper §3). *)
let all = [ Inline; Constprop; Induction; Constprop2; Deadcode; Parallelize ]

(** The guarded-pass name: what the observer, the flight recorder and
    the incident records call this pass.  Stable — {!Valid.Snapshot}
    and the daemon's JSON log key on these strings. *)
let name = function
  | Inline -> "inline"
  | Constprop -> "constprop"
  | Induction -> "induction"
  | Constprop2 -> "constprop2"
  | Deadcode -> "deadcode"
  | Parallelize -> "parallelize"

let doc = function
  | Inline -> "inline small subroutines into call sites (paper §3.1)"
  | Constprop -> "propagate compile-time constants and copies"
  | Induction -> "substitute (generalized) induction variables (paper §3.2)"
  | Constprop2 -> "second propagation round: clean up induction's X=X0 exposures"
  | Deadcode -> "remove dead scalar assignments"
  | Parallelize -> "prove DOALLs: range test, privatization, reductions, LRPD"

(** The caches the pass looks up under the parallelizer's [mode], by
    {!Util.Cachectl} cache name — re-exported from the pass modules
    that look any up, so the declaration lives with the pass.  Inlining,
    propagation and dead-code removal rewrite statements without
    consulting a cache. *)
let consumes mode = function
  | Inline | Constprop | Constprop2 | Deadcode -> []
  | Induction -> Passes.Induction.consumes
  | Parallelize -> Passes.Parallelize.consumes mode

(** The fail-safe capability the guard disables when the pass faults.
    Both propagation rounds share ["constprop"]: a crashed first round
    also skips the second. *)
let disables = function
  | Inline -> "inline"
  | Constprop | Constprop2 -> "constprop"
  | Induction -> "induction"
  | Deadcode -> "deadcode"
  | Parallelize -> "parallelize"

(** The [polaris list-passes] listing: every pass in order, with its
    metadata (the caches it looks up in the default, Polaris,
    configuration). *)
let pp_passes ppf () =
  let entry ppf p =
    Fmt.pf ppf "%-12s %s@,%-12s   consumes: %s@,%-12s   disables-on-fault: %s"
      (name p) (doc p) ""
      (match consumes Passes.Parallelize.Polaris p with
      | [] -> "-"
      | cs -> String.concat ", " cs)
      "" (disables p)
  in
  Fmt.pf ppf "@[<v>%a@]@." (Fmt.list ~sep:Fmt.cut entry) all
