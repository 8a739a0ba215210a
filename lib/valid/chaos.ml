(** Deterministic fault-injection harness for the fail-safe pipeline.

    Polaris's engineering discipline (paper §2) was to assume its own
    passes were buggy and catch the damage with pervasive assertions.
    This module turns that assumption into a test: it injects faults —
    raised exceptions, IR corruptions that violate {!Fir.Consistency},
    and analysis-budget exhaustion — at pass and dependence-test
    boundaries, then checks the containment contract of
    {!Core.Pipeline}:

    - no injected fault escapes [Pipeline.run];
    - every contained fault is attributed (an {!Core.Pipeline.incident}
      naming the pass it was injected into);
    - the degraded output is still {e correct}: it passes the
      {!Oracle} differential check against the original program;
    - under [~strict:true] the same fault re-raises.

    Everything draws from a single splitmix64 {!Util.Prng} stream, so a
    seed fully determines the plan, the injection sites, and the
    corruptions: every failure is replayable from its seed alone. *)

open Fir

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)

type fault =
  | Raise_exn     (** raise [Failure] at the pass boundary *)
  | Corrupt_ir    (** mutate the IR so {!Fir.Consistency} rejects it *)

let fault_to_string = function
  | Raise_exn -> "raise"
  | Corrupt_ir -> "corrupt"

(** What one chaos run will do, derived deterministically from a seed. *)
type plan = {
  pl_seed : int;
  pl_injections : (string * fault) list;
      (** pass name → fault, at most one per pass *)
  pl_zero_budget : bool;
      (** run with [budget_steps = 0]: every dependence test exhausts,
          all verdicts must degrade to "unknown → serial" *)
}

(* every pass, in the pipeline's one order; an injection into a pass the
   configuration skips (inline under the baseline) never fires *)
let injectable_passes = List.map Core.Pass_id.name Core.Pass_id.all

let make_plan seed : plan =
  let prng = Util.Prng.create (0x5EED_C4A0 lxor (seed * 2654435761)) in
  let n_inj = 1 + Util.Prng.int prng 2 in
  let rec draw acc n =
    if n = 0 then acc
    else
      let pass = Util.Prng.pick prng injectable_passes in
      if List.mem_assoc pass acc then draw acc n
      else
        let fault = if Util.Prng.int prng 2 = 0 then Raise_exn else Corrupt_ir in
        draw ((pass, fault) :: acc) (n - 1)
  in
  { pl_seed = seed;
    pl_injections = draw [] n_inj;
    pl_zero_budget = Util.Prng.int prng 4 = 0 }

let pp_plan ppf (p : plan) =
  Fmt.pf ppf "seed=%d [%s]%s" p.pl_seed
    (String.concat ", "
       (List.map
          (fun (pass, f) -> pass ^ ":" ^ fault_to_string f)
          p.pl_injections))
    (if p.pl_zero_budget then " zero-budget" else "")

(* ------------------------------------------------------------------ *)
(* IR corruption                                                       *)

(* Corrupt [prog] in place so that {!Fir.Consistency.check} must reject
   it.  Two shapes, chosen by the PRNG:
   - duplicate a statement record (two statements share an sid);
   - replace an expression with a pattern [Wildcard], which is illegal
     outside {!Fir.Pattern} templates.
   Falls back from wildcard to duplication when the chosen unit has no
   expressions, so corruption is never a silent no-op. *)
let corrupt prng (prog : Program.t) : string =
  let units =
    List.filter (fun (u : Punit.t) -> u.pu_body <> []) (Program.units prog)
  in
  match units with
  | [] -> "no corruptible unit"  (* cannot arise for parsed programs *)
  | _ ->
    let u = Util.Prng.pick prng units in
    (* announce the mutation like any pass would: bumps the unit's
       invalidation version and lets the COW guard snapshot the unit
       for rollback *)
    Program.touch prog u;
    let duplicate () =
      u.pu_body <- List.hd u.pu_body :: u.pu_body;
      Fmt.str "duplicated statement in %s" u.pu_name
    in
    if Util.Prng.int prng 2 = 0 then duplicate ()
    else begin
      (* count expressions, then zap a PRNG-chosen one with a Wildcard *)
      let total = ref 0 in
      Stmt.iter_exprs (fun _ -> incr total) u.pu_body;
      if !total = 0 then duplicate ()
      else begin
        let target = Util.Prng.int prng !total and seen = ref 0 in
        u.pu_body <-
          Stmt.map_block_exprs
            (fun e ->
              let i = !seen in
              incr seen;
              if i = target then Ast.Wildcard 0 else e)
            u.pu_body;
        Fmt.str "wildcard planted in %s" u.pu_name
      end
    end

(* ------------------------------------------------------------------ *)
(* One chaos run                                                       *)

(** Result of one seeded run. *)
type outcome = {
  oc_plan : plan;
  oc_fired : (string * fault) list;
      (** injections that actually triggered (a pass disabled by an
          earlier incident never reaches its injection site) *)
  oc_escaped : string option;  (** exception that escaped [Pipeline.run] *)
  oc_incidents : Core.Pipeline.incident list;
  oc_attributed : bool;
      (** every fired fault has an incident naming its pass *)
  oc_unknown_delta : int;
      (** budget-exhaustion verdicts recorded by {!Dep.Driver} *)
  oc_budget_degraded : bool;
      (** zero-budget runs must not parallelize any loop whose verdict
          needed an (exhausted) array dependence test *)
  oc_oracle : Oracle.report option;
      (** differential check of degraded output vs. original *)
}

let outcome_ok (o : outcome) =
  o.oc_escaped = None && o.oc_attributed && o.oc_budget_degraded
  && (match o.oc_oracle with Some r -> Oracle.equivalent r | None -> true)

(** Run the pipeline on [source] under [plan], injecting faults through
    {!Core.Pipeline}'s [fault_hook] seam, and check the containment
    contract.  [procs_list]/[seeds] bound the oracle's differential
    matrix (chaos sweeps run many seeds, so the default is small). *)
let run_plan ?(config = Core.Config.polaris ()) ?(procs_list = [ 4 ])
    ?(seeds = []) (plan : plan) (source : string) : outcome =
  let prng = Util.Prng.create (0xFA017 lxor (plan.pl_seed * 40503)) in
  let original = Frontend.Parser.parse_string source in
  let program = Program.copy original in
  let config =
    if plan.pl_zero_budget then { config with budget_steps = 0 } else config
  in
  let fired = ref [] in
  let fault_hook pass prog =
    match List.assoc_opt pass plan.pl_injections with
    | None -> ()
    | Some f ->
      fired := (pass, f) :: !fired;
      (match f with
      | Raise_exn -> failwith ("chaos: injected fault in pass " ^ pass)
      | Corrupt_ir -> ignore (corrupt prng prog : string))
  in
  let unknown0 = (Dep.Driver.counters_snapshot ()).unknown in
  let result =
    try Ok (Core.Pipeline.run ~fault_hook config program)
    with e -> Error (Printexc.to_string e)
  in
  let unknown_delta =
    (Dep.Driver.counters_snapshot ()).unknown - unknown0
  in
  match result with
  | Error e ->
    { oc_plan = plan; oc_fired = List.rev !fired; oc_escaped = Some e;
      oc_incidents = []; oc_attributed = false;
      oc_unknown_delta = unknown_delta; oc_budget_degraded = false;
      oc_oracle = None }
  | Ok t ->
    let attributed =
      List.for_all
        (fun (pass, _) ->
          List.exists
            (fun (i : Core.Pipeline.incident) -> i.inc_pass = pass)
            t.incidents)
        !fired
    in
    let budget_degraded =
      (not plan.pl_zero_budget)
      || List.for_all
           (fun (l : Core.Pipeline.loop_result) ->
             (* with zero budget no array dependence test can complete,
                so any parallel verdict must be one that needed no such
                proof (no array accesses at all) — conservatively: the
                loop is serial or the run recorded its exhaustion *)
             (not l.report.parallel) || unknown_delta >= 0)
           t.loops
    in
    let oracle =
      Oracle.differential ~procs_list ~seeds ~original
        ~transformed:t.program ()
    in
    { oc_plan = plan; oc_fired = List.rev !fired; oc_escaped = None;
      oc_incidents = t.incidents; oc_attributed = attributed;
      oc_unknown_delta = unknown_delta; oc_budget_degraded = budget_degraded;
      oc_oracle = Some oracle }

(** Check that [~strict:true] re-raises the planned fault instead of
    containing it.  Returns [true] when the first injected fault escapes
    (or the plan injects into passes that never run). *)
let strict_reraises ?(config = Core.Config.polaris ()) (plan : plan)
    (source : string) : bool =
  let prng = Util.Prng.create (0xFA017 lxor (plan.pl_seed * 40503)) in
  let program = Frontend.Parser.parse_string source in
  let fired = ref false in
  let fault_hook pass prog =
    match List.assoc_opt pass plan.pl_injections with
    | None -> ()
    | Some f ->
      fired := true;
      (match f with
      | Raise_exn -> failwith ("chaos: injected fault in pass " ^ pass)
      | Corrupt_ir -> ignore (corrupt prng prog : string))
  in
  match Core.Pipeline.run ~strict:true ~fault_hook config program with
  | _ -> not !fired  (* no injection site was reached: vacuously fine *)
  | exception _ -> true

(* ------------------------------------------------------------------ *)
(* Sweeps                                                              *)

type sweep = {
  sw_seeds : int;                (** seeded runs performed *)
  sw_contained : int;            (** runs with >= 1 incident, none escaped *)
  sw_failures : outcome list;    (** runs violating the contract *)
  sw_strict_failures : int list; (** seeds where strict failed to re-raise *)
}

let sweep_ok (s : sweep) = s.sw_failures = [] && s.sw_strict_failures = []

(** Run [n] seeded chaos plans ([first_seed ...]) over [sources]
    round-robin; each seed also gets a strict re-raise check. *)
let run_sweep ?config ?procs_list ?seeds ?(first_seed = 1) ~n
    (sources : (string * string) list) : sweep =
  if sources = [] then invalid_arg "Chaos.run_sweep: no sources";
  let contained = ref 0 and failures = ref [] and strict_failures = ref [] in
  for i = 0 to n - 1 do
    let seed = first_seed + i in
    let _, source = List.nth sources (i mod List.length sources) in
    let plan = make_plan seed in
    let o = run_plan ?config ?procs_list ?seeds plan source in
    if o.oc_incidents <> [] && o.oc_escaped = None then incr contained;
    if not (outcome_ok o) then failures := o :: !failures;
    if not (strict_reraises ?config plan source) then
      strict_failures := seed :: !strict_failures
  done;
  { sw_seeds = n; sw_contained = !contained;
    sw_failures = List.rev !failures;
    sw_strict_failures = List.rev !strict_failures }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let outcome_json (o : outcome) =
  let open Trace.Json in
  obj
    [ ("seed", int o.oc_plan.pl_seed);
      ( "injections",
        arr
          (List.map
             (fun (pass, f) ->
               obj
                 [ ("pass", str pass); ("fault", str (fault_to_string f)) ])
             o.oc_plan.pl_injections) );
      ("zero_budget", bool o.oc_plan.pl_zero_budget);
      ( "fired",
        arr (List.map (fun (pass, _) -> str pass) o.oc_fired) );
      ( "escaped",
        match o.oc_escaped with Some e -> str e | None -> null );
      ("attributed", bool o.oc_attributed);
      ("budget_unknown_delta", int o.oc_unknown_delta);
      ("incidents", arr (List.map Trace.incident_json o.oc_incidents));
      ( "oracle_equivalent",
        match o.oc_oracle with
        | Some r -> bool (Oracle.equivalent r)
        | None -> null );
      ("ok", bool (outcome_ok o)) ]

let sweep_json (s : sweep) =
  let open Trace.Json in
  obj
    [ ("seeds", int s.sw_seeds);
      ("contained", int s.sw_contained);
      ("ok", bool (sweep_ok s));
      ("failures", arr (List.map outcome_json s.sw_failures));
      ("strict_failures", arr (List.map int s.sw_strict_failures)) ]

let pp_outcome ppf (o : outcome) =
  Fmt.pf ppf "%a: %s%s%s%s" pp_plan o.oc_plan
    (match o.oc_escaped with
    | Some e -> "ESCAPED " ^ e
    | None -> Fmt.str "%d incident(s)" (List.length o.oc_incidents))
    (if o.oc_attributed then "" else " MISATTRIBUTED")
    (if o.oc_budget_degraded then "" else " BUDGET-UNSOUND")
    (match o.oc_oracle with
    | Some r when not (Oracle.equivalent r) -> " ORACLE-DIVERGED"
    | _ -> "")

let pp_sweep ppf (s : sweep) =
  Fmt.pf ppf "chaos sweep: %d seeds, %d contained, %d contract failures, %d strict failures@."
    s.sw_seeds s.sw_contained
    (List.length s.sw_failures)
    (List.length s.sw_strict_failures);
  List.iter (fun o -> Fmt.pf ppf "  %a@." pp_outcome o) s.sw_failures

(** The default chaos corpus: every synthetic suite code. *)
let default_sources () =
  List.map (fun (c : Suite.Code.t) -> (c.name, c.source)) Suite.Registry.all
