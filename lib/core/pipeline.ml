(** The pass pipeline: source in, annotated parallel source + report out.

    Order (paper §3, {!Pass_id.all}): inline expansion → constant/copy
    propagation → induction substitution → another propagation round
    (the TRFD [X = X0] cleanup) → dead-code cleanup →
    reduction/dependence/privatization analysis (the parallelize
    driver).  The baseline configuration runs the same order with the
    weaker capability set, and without inlining.

    {b Fail-safe contract} (paper §2: a restructurer must never
    miscompile).  Every pass runs inside a fault-containment guard: a
    unit is snapshotted copy-on-write at its {e first} mutation across
    the whole pipeline, the units the pass touched are re-checked with
    {!Fir.Consistency}, and any exception or consistency violation
    rolls the program back — restoring the first-touch snapshots and
    replaying the passes that already succeeded — disables the guilty
    capability for the rest of the run, and appends an {!incident}
    record.  [run]/[compile] therefore never raise past
    parse errors (unless [strict] is set): the worst possible output is
    the original program compiled serially, plus a non-empty
    [incidents] list. *)

type loop_result = {
  unit_name : string;
  report : Passes.Parallelize.loop_report;
}

(** One contained pass failure. *)
type incident = {
  inc_pass : string;      (** guarded pass that failed *)
  inc_reason : string;    (** exception / violation, backtrace-free *)
  inc_rolled_back : bool; (** program restored to the pre-pass snapshot *)
  inc_disabled : string option;
      (** capability disabled for the remainder of the run, if any *)
}

(** Per-pass analysis-reuse ledger entry: what the pass declared it
    consumes, and how the registered analysis caches behaved while it
    ran (hit/miss deltas from {!Util.Cachectl}).  The raw material of
    [polaris --explain-reuse]. *)
type pass_reuse = {
  pr_pass : string;               (** guarded pass name *)
  pr_consumes : string list;      (** analyses the pass declares it reads *)
  pr_cache : (string * int * int) list;
      (** (analysis, hits, misses) growth during the pass — caches
          with at least one lookup *)
}

type t = {
  config : Config.t;
  program : Fir.Program.t;        (** transformed, annotated program *)
  loops : loop_result list;
  inductions : (string * string) list;  (** substituted induction vars *)
  inline_stats : Passes.Inline.stats option;
  incidents : incident list;      (** contained pass failures, in order *)
  reuse : pass_reuse list;        (** per-pass analysis reuse, in pass order *)
}

let pp_incident ppf (i : incident) =
  Fmt.pf ppf "incident in pass '%s': %s%s%s" i.inc_pass i.inc_reason
    (if i.inc_rolled_back then " [rolled back]" else "")
    (match i.inc_disabled with
    | Some c -> Fmt.str " [capability '%s' disabled]" c
    | None -> "")

(** Run the configured pipeline on a parsed program (the program is
    transformed in place and returned in the result).

    [observer] is invoked after each pass that ran {e and survived its
    guard}, with the pass name and the (in-place mutated) program — the
    hook the translation-validation oracle ({!Valid.Snapshot}) and the
    flight recorder ({!Valid.Trace}) use to snapshot intermediate states
    and localize a divergence to the pass that introduced it.  The first
    event is ["parse"], before any transformation.  A rolled-back pass
    is not observed: its (discarded) effect is invisible downstream.

    [fault_hook] is invoked {e inside} the guard, right after the pass
    body and before the post-pass consistency check — the seam the chaos
    injector ({!Valid.Chaos}) uses to raise exceptions or corrupt the IR
    at a pass boundary and have the fault attributed to that pass.  Like
    a pass, a hook that mutates a unit announces it first through
    {!Fir.Program.touch}: the guard re-checks and rolls back only the
    units it saw touched.

    [strict] disables containment: the first fault re-raises before any
    rollback (the debugging mode behind [polaris --strict]). *)
let run ?(strict = false) ?(observer : (string -> Fir.Program.t -> unit) option)
    ?(fault_hook : (string -> Fir.Program.t -> unit) option)
    (config : Config.t) (program : Fir.Program.t) : t =
  Util.Cachectl.with_enabled config.caches @@ fun () ->
  let obs name = match observer with Some f -> f name program | None -> () in
  let incidents = ref [] in
  let reuse = ref [] in
  let disabled = ref [] in
  let enabled cap = not (List.mem cap !disabled) in
  (* Snapshot strategy: copy-on-write with {e pipeline-level} snapshot
     elision.  Passes (and chaos fault hooks) announce each unit they
     are about to mutate through the {!Fir.Program.touch} seam, and the
     guard deep-copies a unit only on its {e first} touch in the whole
     pipeline run (the [pristine] map below) — a unit rewritten by four
     passes is copied once, not four times.  Per pass the guard tracks
     only the touched units' identities for the post-pass consistency
     re-check.  On a fault the guard rolls every pristine-snapshotted
     unit back to its pre-pipeline state and deterministically
     {e replays} the passes that already succeeded (the [completed]
     thunks), reproducing the state a per-pass snapshot would have
     restored directly; the observer and the reuse ledger are not
     re-fired during replay.  Replay is fault-free by construction — it
     re-runs deterministic passes on the same pre-pipeline state they
     succeeded on — but if it ever diverges the program is reset to its
     parse state, which still satisfies the fail-safe contract. *)
  (* (live unit, deep copy at its first-ever touch) — grows monotonically
     across passes; the rollback baseline for the COW guard *)
  let pristine : (Fir.Punit.t * Fir.Punit.t) list ref = ref [] in
  (* replay thunks of the guarded passes that succeeded, newest first *)
  let completed : (unit -> unit) list ref = ref [] in
  (* run pass [p] under the containment guard; if it faults, its
     {!Pass_id.disables} capability is switched off (its later runs are
     skipped — e.g. a crashed first propagation round disables the
     second).  The guard brackets the pass with cache counter snapshots
     and appends a {!pass_reuse} ledger entry, with the pass's declared
     {!Pass_id.consumes}, on success. *)
  let guard : 'a. Pass_id.t -> (unit -> 'a) -> 'a option =
   fun p f ->
    let pass = Pass_id.name p in
    let cache_base = Util.Cachectl.snapshot () in
    let dirty : Fir.Punit.t list ref = ref [] in
    Fir.Program.set_touch_hook program
      (Some
         (fun u ->
           if not (List.memq u !dirty) then dirty := u :: !dirty;
           if not (List.exists (fun (live, _) -> live == u) !pristine) then
             pristine := (u, Fir.Punit.copy u) :: !pristine));
    let release () = Fir.Program.set_touch_hook program None in
    match
      Fun.protect ~finally:release (fun () ->
          let v = f () in
          (match fault_hook with Some h -> h pass program | None -> ());
          (* unit-local re-checks of the touched units; at -j > 1 the
             checks fan out across domains (each reads one unit, writes
             nothing) and Pool.map's earliest-failure merge re-raises the
             same violation the serial left-to-right iteration would *)
          ignore
            (Util.Pool.map (fun live -> Fir.Consistency.check_unit live) !dirty
              : unit list);
          v)
    with
    | v ->
      reuse :=
        { pr_pass = pass;
          pr_consumes = Pass_id.consumes config.mode p;
          pr_cache =
            Util.Cachectl.delta ~base:cache_base (Util.Cachectl.snapshot ())
            |> List.filter (fun (_, h, m) -> h + m > 0) }
        :: !reuse;
      obs pass;
      completed := (fun () -> ignore (f ())) :: !completed;
      Some v
    | exception e ->
      if strict then raise e;
      let reason =
        ref
          (match e with
          | Fir.Consistency.Violation m ->
            "post-pass IR consistency violation: " ^ m
          | e -> Printexc.to_string e)
      in
      (* COW rollback: reset every ever-touched unit to its pre-pipeline
         snapshot, then replay the already-succeeded passes in order to
         rebuild the state this pass started from.  Replay mutations bump
         unit versions through the touch seam, so no cache can serve
         facts about the discarded intermediate states. *)
      List.iter (fun (live, snap) -> Fir.Punit.restore ~from:snap live) !pristine;
      (try List.iter (fun replay -> replay ()) (List.rev !completed)
       with re ->
         (* A deterministic pass that succeeded before diverged on
            replay — should be impossible.  Fall back to the parse
            state (fail-safe: worst output is the original program). *)
         List.iter (fun (live, snap) -> Fir.Punit.restore ~from:snap live)
           !pristine;
         completed := [];
         reason :=
           !reason
           ^ Printf.sprintf
               " (replay of prior passes failed: %s; program reset to parse \
                state)"
               (Printexc.to_string re));
      disabled := Pass_id.disables p :: !disabled;
      incidents :=
        { inc_pass = pass; inc_reason = !reason; inc_rolled_back = true;
          inc_disabled = Some (Pass_id.disables p) }
        :: !incidents;
      None
  in
  obs "parse";
  (* One dispatch arm per {!Pass_id}, walked in the order of
     {!Pass_id.all}.  Only [inline] depends on the configuration; a
     fault in the first propagation round disables ["constprop"], which
     skips the second. *)
  let inline_stats = ref None in
  let inductions = ref [] in
  let reports = ref [] in
  let run_pass (p : Pass_id.t) =
    match p with
    | Pass_id.Inline ->
      if config.inline then
        inline_stats := guard p (fun () -> Passes.Inline.run program)
    | Pass_id.Constprop | Pass_id.Constprop2 ->
      if enabled "constprop" then
        ignore (guard p (fun () -> Passes.Constprop.run program))
    | Pass_id.Induction ->
      inductions :=
        Option.value ~default:[]
          (guard p (fun () ->
               Passes.Induction.run ~generalized:config.generalized_induction
                 program))
    | Pass_id.Deadcode ->
      ignore (guard p (fun () -> ignore (Passes.Deadcode.run program)))
    | Pass_id.Parallelize ->
      reports :=
        Option.value ~default:[]
          (guard p (fun () ->
               Dep.Driver.with_budget ~steps:config.budget_steps (fun () ->
                   Passes.Parallelize.run ~mode:config.mode program)))
  in
  List.iter run_pass Pass_id.all;
  let inline_stats = !inline_stats in
  let inductions = !inductions in
  let reports = !reports in
  let loops =
    List.concat_map
      (fun (unit_name, rs) ->
        List.map (fun report -> { unit_name; report }) rs)
      reports
  in
  { config; program; loops; inductions; inline_stats;
    incidents = List.rev !incidents; reuse = List.rev !reuse }

(** Parse Fortran source and run the pipeline. *)
let compile ?strict ?observer ?fault_hook (config : Config.t)
    (source : string) : t =
  run ?strict ?observer ?fault_hook config
    (Frontend.Parser.parse_string source)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

let parallel_loops (t : t) =
  List.filter (fun l -> l.report.parallel) t.loops

let serial_loops (t : t) =
  List.filter (fun l -> not l.report.parallel) t.loops

let speculative_candidates (t : t) =
  List.filter (fun l -> l.report.speculative) t.loops

(** True when every pass survived its guard. *)
let clean (t : t) = t.incidents = []

(** Annotated Fortran source of the transformed program. *)
let output_source (t : t) = Frontend.Unparse.program_to_string t.program

let pp_summary ppf (t : t) =
  Fmt.pf ppf "pipeline %s: %d/%d loops parallel@." t.config.name
    (List.length (parallel_loops t))
    (List.length t.loops);
  List.iter
    (fun l ->
      Fmt.pf ppf "  [%s] DO %-8s %s%s -- %s@." l.unit_name
        l.report.loop_index
        (if l.report.parallel then "PARALLEL" else "serial  ")
        (if l.report.speculative then " (speculative candidate)" else "")
        l.report.reason)
    t.loops;
  if t.incidents <> [] then begin
    Fmt.pf ppf "  compiled with %d incident(s):@." (List.length t.incidents);
    List.iter (fun i -> Fmt.pf ppf "    %a@." pp_incident i) t.incidents
  end
