(** The pass pipeline: Fortran source in, annotated parallel program and
    per-loop reports out.

    Pass order (paper §3, {!Pass_id.all}, the same for every
    configuration): inline expansion → constant/copy propagation →
    induction substitution → propagation again → dead-code cleanup →
    reduction/dependence/privatization analysis.

    {b Fail-safe contract.}  Every pass runs inside a fault-containment
    guard: a unit is snapshotted copy-on-write at its first mutation in
    the whole pipeline run (through the {!Fir.Program.touch} seam), the
    units the pass touched are re-checked with {!Fir.Consistency}, and
    any exception or consistency violation rolls the program back —
    first-touch snapshots restored and the already-succeeded passes
    replayed — disables the guilty capability for the rest of the run,
    and appends an {!incident} record.  [run]/[compile] never raise past parse
    errors (unless [strict] is set): the worst possible output is the
    original program compiled serially, plus a non-empty incident
    list.

    {b Caches.}  [run] (and so [compile]) scopes
    {!Util.Cachectl.enabled} to [config.caches].  The compile-time
    caches can never serve results derived from a rewritten-away
    program state: every cache is content-addressed, and none reads
    mutable IR. *)

type loop_result = {
  unit_name : string;                      (** enclosing program unit *)
  report : Passes.Parallelize.loop_report; (** the loop's verdict *)
}

(** One contained pass failure. *)
type incident = {
  inc_pass : string;      (** guarded pass that failed *)
  inc_reason : string;    (** exception / consistency violation *)
  inc_rolled_back : bool; (** program restored to the pre-pass snapshot *)
  inc_disabled : string option;
      (** capability disabled for the remainder of the run, if any *)
}

(** Per-pass analysis-reuse ledger entry: what the pass declared it
    consumes and how the registered analysis caches behaved while it ran.
    The raw material of [polaris --explain-reuse]. *)
type pass_reuse = {
  pr_pass : string;               (** guarded pass name *)
  pr_consumes : string list;      (** analyses the pass declares it reads *)
  pr_cache : (string * int * int) list;
      (** (analysis, hits, misses) growth during the pass *)
}

type t = {
  config : Config.t;
  program : Fir.Program.t;   (** transformed, annotated program *)
  loops : loop_result list;  (** one entry per loop, outer before inner *)
  inductions : (string * string) list;
      (** substituted induction variables with their region loop *)
  inline_stats : Passes.Inline.stats option;
  incidents : incident list; (** contained pass failures, in order *)
  reuse : pass_reuse list;   (** per-pass analysis reuse, in pass order *)
}

val pp_incident : Format.formatter -> incident -> unit

(** Run the configured pipeline on a parsed program (transformed in
    place and returned in the result).

    [observer] is called after each pass that ran and survived its
    guard, with the pass name and the (mutated) program; the first event
    is ["parse"].  The translation-validation oracle ({!Valid.Snapshot})
    and the flight recorder ({!Valid.Trace}) hook in here to snapshot
    intermediate states and localize divergences to the pass that
    introduced them.  A rolled-back pass is not observed.

    [fault_hook] runs {e inside} each pass's guard, after the pass body
    and before the consistency check — the fault-injection seam used by
    {!Valid.Chaos}.  A hook that mutates a unit must announce it through
    {!Fir.Program.touch} first, as passes do.

    [strict] disables containment: the first fault re-raises before any
    rollback. *)
val run :
  ?strict:bool ->
  ?observer:(string -> Fir.Program.t -> unit) ->
  ?fault_hook:(string -> Fir.Program.t -> unit) ->
  Config.t -> Fir.Program.t -> t

(** Parse Fortran source and run the pipeline.
    @raise Frontend.Parser.Error on syntax errors. *)
val compile :
  ?strict:bool ->
  ?observer:(string -> Fir.Program.t -> unit) ->
  ?fault_hook:(string -> Fir.Program.t -> unit) ->
  Config.t -> string -> t

val parallel_loops : t -> loop_result list
val serial_loops : t -> loop_result list

(** Loops defeated only by subscripted subscripts: candidates for the
    run-time PD test (paper §3.5). *)
val speculative_candidates : t -> loop_result list

(** True when every pass survived its guard (no incidents). *)
val clean : t -> bool

(** Annotated Fortran source of the transformed program ([CPOLARIS$]
    directives); re-parses with {!Frontend.Parser}. *)
val output_source : t -> string

(** Human-readable per-loop summary, including incidents if any. *)
val pp_summary : Format.formatter -> t -> unit
