(** Incremental recompilation (`polaris serve`).

    A serve session compiles a sequence of programs — typically edit
    deltas to one program — through the ordinary {!Pipeline}, in one
    process, {e without clearing the analysis caches between compiles}.
    The content-addressed semantic caches (the loop range environments
    keyed on each unit's [Punit.fingerprint], dependence verdicts keyed
    on canonical loop/access/env fingerprints, [Poly.of_expr], the
    [Compare] tables) key on what the IR {e says}, not on which
    physical records say it, so recompiling a program whose unit is
    unchanged re-hits every fact proved about that unit in an earlier
    compile — only the edited unit pays for analysis.  Facts that
    name statements (loop nests, reaching definitions) live only as
    long as the one loop analysis that computed them, so a warm
    compile keeps no IR of an earlier compile alive.  [Serve.Local],
    the serve session's entry point, also empties the [Compare] tables
    before each compile; {!compile} itself clears nothing.

    Soundness is not argued, it is measured: {!diverges} compares an
    incremental compile against a from-scratch compile ({!scratch}) of
    the same source — annotated output, per-loop verdicts (statement
    ids masked), incidents and dependence-test outcome counters must
    all be byte-identical.  `polaris serve --check` and
    [test/test_incremental.ml] enforce this; the differential oracle
    and fault containment run unchanged underneath. *)

(* sid-free projection of one loop verdict *)
type verdict = {
  v_unit : string;
  v_index : string;
  v_parallel : bool;
  v_speculative : bool;
  v_reason : string;
}

(** Everything an incremental compile must reproduce byte-identically:
    the annotated output source, the per-loop verdicts with statement
    ids masked (ids are globally fresh by design, so they differ across
    compiles of identical source), the incident list and the
    dependence counters accumulated by the compile. *)
type outcome = {
  oc_output : string;
  oc_verdicts : verdict list;
  oc_incidents : Pipeline.incident list;
  oc_counters : Dep.Driver.counters;
}

(** Analysis-reuse accounting of one compile: hit/miss growth of every
    analysis cache registered with {!Util.Cachectl}, and the reuse rate
    hits/(hits+misses) over all of them. *)
type stats = {
  st_tracked : (string * int * int) list;  (** (analysis, hits, misses) *)
  st_hits : int;
  st_lookups : int;
  st_reuse_rate : float;  (** 0.0 when there were no lookups *)
}

type result = {
  pipeline : Pipeline.t;
  outcome : outcome;
  stats : stats;
}

let outcome_of ~(counters_base : Dep.Driver.counters) (t : Pipeline.t) :
    outcome =
  { oc_output = Pipeline.output_source t;
    oc_verdicts =
      List.map
        (fun (l : Pipeline.loop_result) ->
          { v_unit = l.unit_name;
            v_index = l.report.loop_index;
            v_parallel = l.report.parallel;
            v_speculative = l.report.speculative;
            v_reason = l.report.reason })
        t.loops;
    oc_incidents = t.incidents;
    oc_counters =
      Dep.Driver.counters_delta ~base:counters_base
        (Dep.Driver.counters_snapshot ()) }

let stats_of ~cache_base : stats =
  let st_tracked =
    Util.Cachectl.delta ~base:cache_base (Util.Cachectl.snapshot ())
  in
  let st_hits = List.fold_left (fun a (_, h, _) -> a + h) 0 st_tracked in
  let misses = List.fold_left (fun a (_, _, m) -> a + m) 0 st_tracked in
  let st_lookups = st_hits + misses in
  { st_tracked; st_hits; st_lookups;
    st_reuse_rate =
      (if st_lookups = 0 then 0.0
       else float_of_int st_hits /. float_of_int st_lookups) }

(** Compile [source] reusing whatever the analysis caches still hold
    from earlier compiles of this process — the incremental path. *)
let compile ?strict ?observer (config : Config.t) (source : string) : result =
  let cache_base = Util.Cachectl.snapshot () in
  let counters_base = Dep.Driver.counters_snapshot () in
  let pipeline = Pipeline.compile ?strict ?observer config source in
  { pipeline;
    outcome = outcome_of ~counters_base pipeline;
    stats = stats_of ~cache_base }

(** Compile [source] from scratch: every analysis cache is emptied
    first, so nothing from earlier compiles can be reused.  The
    reference for {!diverges}.  (The scratch compile itself re-warms
    the content-addressed caches with entries equivalent to those it
    cleared, so a following incremental compile is measured against an
    honestly warm state either way.) *)
let scratch ?strict ?observer (config : Config.t) (source : string) : result =
  Util.Cachectl.clear_all ();
  compile ?strict ?observer config source

(** [diverges ~incremental ~scratch]: every way the incremental outcome
    differs from the from-scratch outcome, as human-readable one-liners
    (empty = byte-identical, the required result). *)
let diverges ~(incremental : outcome) ~(scratch : outcome) : string list =
  let d = ref [] in
  let add fmt = Fmt.kstr (fun s -> d := s :: !d) fmt in
  if not (String.equal incremental.oc_output scratch.oc_output) then
    add "annotated output source differs";
  if incremental.oc_verdicts <> scratch.oc_verdicts then
    add "per-loop verdicts differ (%d vs %d loops)"
      (List.length incremental.oc_verdicts)
      (List.length scratch.oc_verdicts);
  if incremental.oc_incidents <> scratch.oc_incidents then
    add "incident lists differ (%d vs %d)"
      (List.length incremental.oc_incidents)
      (List.length scratch.oc_incidents);
  if incremental.oc_counters <> scratch.oc_counters then
    add "dependence-test outcome counters differ";
  List.rev !d
