(** Dependence-analysis driver: per-loop parallelism verdicts.

    Orchestrates the tests over all access pairs of a loop body and
    implements the permuted-prefix scheme of the range test (paper
    §3.3.1): a loop is free of carried array dependences if there is an
    ordered list of promoted inner loops, each passing its own
    range-test position, with the tested loop passing last.

    The [method_] selects the capability set: [Range_test] is the
    Polaris configuration, [Banerjee_gcd] the baseline ("current
    compilers" / PFA) configuration. *)

open Symbolic
module Loops = Analysis.Loops
module Access = Analysis.Access

type method_ = Range_symbolic | Banerjee_gcd

type verdict =
  | Parallel of string          (** proof description *)
  | Dependent of string         (** first failure reason *)

(* ------------------------------------------------------------------ *)
(* Outcome counters (the flight recorder's dependence-test telemetry)   *)

type counters = {
  mutable range_proved : int;   (** range test: independence proved *)
  mutable range_failed : int;
  mutable linear_proved : int;  (** gcd/banerjee/siv: independence proved *)
  mutable linear_failed : int;
  mutable unknown : int;
      (** verdicts degraded to serial because the analysis budget ran
          out before the tests could finish (counted on top of the
          failed counter for the method) *)
}

let counters =
  { range_proved = 0; range_failed = 0; linear_proved = 0; linear_failed = 0;
    unknown = 0 }

let reset_counters () =
  counters.range_proved <- 0;
  counters.range_failed <- 0;
  counters.linear_proved <- 0;
  counters.linear_failed <- 0;
  counters.unknown <- 0

let index_name (l : Loops.loop) =
  match l.index with Atom.Avar v -> v | Atom.Aopaque _ -> "?"

(* ------------------------------------------------------------------ *)
(* Verdict cache and phase timing                                      *)

(* Wall-clock seconds spent inside [array_deps] since process start;
   the benchmark in [measure/] subtracts snapshots to attribute pipeline
   time to the dependence phase. *)
let wall_in_deps = ref 0.0
let wall_snapshot () = !wall_in_deps

(* --- Domain-safe counter collection (the deterministic-merge story) --

   The dependence phase ({!Passes.Parallelize.run}) analyzes each nest
   as one {!Util.Pool} task, at every job count; at [-j > 1] the tasks
   run on worker domains.  Bare atomics would make the *final* counter
   values correct but their intermediate evolution (and, after a
   contained fault, the final values too) dependent on scheduling.
   Instead, every task runs under {!collecting}, which parks a private
   tally in domain-local storage; the merge step applies the tallies in
   program order ({!apply_tally}), so the global counters are only ever
   written by the submitting domain, and a run at [-j 8] leaves them
   byte-identical to [-j 1] — including runs where a verdict faulted
   (the tally survives the exception and is applied before the fault
   re-raises). *)

type tally = { t_counters : counters; mutable t_wall : float }

let fresh_tally () =
  { t_counters =
      { range_proved = 0; range_failed = 0; linear_proved = 0;
        linear_failed = 0; unknown = 0 };
    t_wall = 0.0 }

let tally_key : tally option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* the counters record to charge from the current context: a
   [collecting] task tally first, then the process-wide record *)
let live_counters () =
  match !(Domain.DLS.get tally_key) with
  | Some t -> t.t_counters
  | None -> counters

(** A copy of the counters of the current context (safe to keep across
    {!reset_counters}).  {!Core.Incremental} brackets a compile with
    two snapshots and reports the delta. *)
let counters_snapshot () =
  let c = live_counters () in
  { c with range_proved = c.range_proved }

(** [counters_delta ~base now]: the counts accumulated between two
    {!counters_snapshot}s. *)
let counters_delta ~(base : counters) (now : counters) : counters =
  { range_proved = now.range_proved - base.range_proved;
    range_failed = now.range_failed - base.range_failed;
    linear_proved = now.linear_proved - base.linear_proved;
    linear_failed = now.linear_failed - base.linear_failed;
    unknown = now.unknown - base.unknown }

let add_wall dt =
  match !(Domain.DLS.get tally_key) with
  | Some t -> t.t_wall <- t.t_wall +. dt
  | None -> wall_in_deps := !wall_in_deps +. dt

(** Run [f] with counter and wall updates diverted into a fresh private
    tally; returns [f]'s outcome (exceptions are captured, not raised —
    the caller decides where in the merged order they surface) together
    with the tally. *)
let collecting (f : unit -> 'a) :
    ('a, exn * Printexc.raw_backtrace) result * tally =
  let t = fresh_tally () in
  let cell = Domain.DLS.get tally_key in
  cell := Some t;
  let outcome =
    match f () with
    | v -> Ok v
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  cell := None;
  (outcome, t)

let fold_into (dst : counters) (src : counters) =
  dst.range_proved <- dst.range_proved + src.range_proved;
  dst.range_failed <- dst.range_failed + src.range_failed;
  dst.linear_proved <- dst.linear_proved + src.linear_proved;
  dst.linear_failed <- dst.linear_failed + src.linear_failed;
  dst.unknown <- dst.unknown + src.unknown

(** Fold a {!collecting} tally into the process-wide counters and
    wall clock (submitting domain only, in program order). *)
let apply_tally (t : tally) =
  fold_into counters t.t_counters;
  wall_in_deps := !wall_in_deps +. t.t_wall

let record method_ verdict =
  let c = live_counters () in
  match (method_, verdict) with
  | Range_symbolic, Parallel _ -> c.range_proved <- c.range_proved + 1
  | Range_symbolic, Dependent _ -> c.range_failed <- c.range_failed + 1
  | Banerjee_gcd, Parallel _ -> c.linear_proved <- c.linear_proved + 1
  | Banerjee_gcd, Dependent _ -> c.linear_failed <- c.linear_failed + 1

(** Test seam: called with the target loop's index name at the start of
    every {!array_deps} verdict (before any symbolic work).  The chaos
    suite uses it to fault a specific verdict {e inside} a worker
    domain and check that containment is identical to the serial run.
    Restore the previous value after use ([Fun.protect]). *)
let verdict_hook : (string -> unit) ref = ref (fun _ -> ())

(* A verdict is a pure function of the canonical fingerprint below plus
   the budget's starvation behaviour, which [Cache.memo_budgeted]
   replays exactly (each verdict draws a fresh budget, so the recorded
   step cost is affordable on a hit precisely when the original run did
   not starve).  Statement ids and bodies are deliberately absent: the
   env, loop headers, access polynomials and the assigned/written name
   sets capture everything the tests read, so structurally identical
   nests hit across passes and even across compilations. *)
type loop_fingerprint = Atom.t * Poly.t * Poly.t * int option

type verdict_key = {
  vk_method : method_;
  vk_enclosing : loop_fingerprint list;
  vk_target : loop_fingerprint;
  vk_inner : loop_fingerprint list;
  vk_accesses : (string * Access.kind * Poly.t list) list;
  vk_assigned : string list;
  vk_written : string list;
  vk_env : Range.env;
}

let loop_fingerprint (l : Loops.loop) : loop_fingerprint =
  (l.index, l.lo, l.hi, l.step)

(* every part of the key enters its hash: the loop structure alone
   takes 143 values over the whole suite *)
module Verdict_cache = Cache.Make (struct
  type t = verdict_key

  let mix = Fir.Expr.hash_combine
  let poly h p = mix h (Poly.hash p)
  let name h n = mix h (Hashtbl.hash n)

  let loop h ((a, lo, hi, step) : loop_fingerprint) =
    mix (poly (poly (mix h (Atom.hash a)) lo) hi) (Hashtbl.hash step)

  let access h (array, kind, subs) =
    List.fold_left poly (mix (name h array) (Hashtbl.hash kind)) subs

  let hash k =
    let h = List.fold_left loop (Hashtbl.hash k.vk_method) k.vk_enclosing in
    let h = List.fold_left loop (loop h k.vk_target) k.vk_inner in
    let h = List.fold_left access h k.vk_accesses in
    let h = List.fold_left name (List.fold_left name h k.vk_assigned) k.vk_written in
    mix h (Range.hash k.vk_env)
end)

(* persist: the key is a pure content fingerprint and the value a pure
   (verdict, step-cost) pair, so entries survive to the daemon's
   on-disk store and re-hit in later processes *)
let verdict_cache : (verdict * int) Verdict_cache.t =
  Verdict_cache.create ~name:"dep.verdict" ~persist:true ()

(* ------------------------------------------------------------------ *)
(* Analysis budgets                                                    *)

(** Default step fuel for one {!array_deps} verdict.  Generous: the
    whole evaluation suite spends well under this per loop; the point is
    to bound pathological symbolic blow-ups, not to change verdicts. *)
let default_budget_steps = 200_000

(** Produces the budget for one verdict when the caller passes none.
    {!Core.Pipeline} installs a factory honouring the configuration's
    budget (and the chaos injector installs an exhausted one). *)
let budget_factory : (unit -> Util.Budget.t) ref =
  ref (fun () -> Util.Budget.create ~steps:default_budget_steps ())

(** Run [f] with budgets drawn as [steps] of fuel; restores the
    previous factory on exit. *)
let with_budget ~steps f =
  let factory () = Util.Budget.create ~steps () in
  let saved = !budget_factory in
  budget_factory := factory;
  Fun.protect ~finally:(fun () -> budget_factory := saved) f

(* ------------------------------------------------------------------ *)
(* Access-pair enumeration                                             *)

(* unordered pairs (with self-pairs for writes) that involve a write *)
let conflict_pairs (accs : Access.t list) : (Access.t * Access.t) list =
  let arr = Array.of_list accs in
  let n = Array.length arr in
  let out = ref [] in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let a = arr.(i) and b = arr.(j) in
      if a.Access.kind = Access.Write || b.Access.kind = Access.Write then
        if i <> j || a.Access.kind = Access.Write then out := (a, b) :: !out
    done
  done;
  !out

(* ------------------------------------------------------------------ *)
(* Soundness pre-checks on subscripts                                  *)

(* subscripts must denote a single value per iteration vector: reject
   accesses whose subscripts mention scalars assigned in the body (other
   than loop indices, which the tests model) or arrays written in the
   body (subscripted subscripts - the LRPD candidates, paper §3.5) *)
type subscript_issue = Varying_scalar of string | Subscripted_subscript of string

let subscript_issue ~(assigned_scalars : string list)
    ~(written_arrays : string list) ~(index_names : string list)
    (a : Access.t) : subscript_issue option =
  let bad_scalar =
    List.find_opt
      (fun v ->
        (not (List.mem v index_names))
        && List.exists (fun p -> Poly.mentions_var v p) a.subs)
      assigned_scalars
  in
  match bad_scalar with
  | Some v -> Some (Varying_scalar v)
  | None ->
    let bad_array =
      List.find_opt
        (fun arr -> List.exists (fun p -> Poly.mentions_var arr p) a.subs)
        written_arrays
    in
    (match bad_array with
    | Some arr -> Some (Subscripted_subscript arr)
    | None -> None)

(* ------------------------------------------------------------------ *)
(* Range-test positions and prefixes                                   *)

(* one position test: iterations of [tested] differ, [collapsed] loops
   range-collapse, everything else is fixed; every pair and dimension
   tests under one sanitized environment *)
let position_passes ~budget env ~(tested : Loops.loop)
    ~(collapsed : Loops.loop list) (pairs : (Access.t * Access.t) list) : bool
    =
  let inner = List.map (fun (l : Loops.loop) -> l.index) collapsed in
  let index = index_name tested in
  let env = Range_test.sanitize_env env ~index ~keep:inner in
  List.for_all
    (fun ((a : Access.t), (b : Access.t)) ->
      Range_test.test_pair ~budget env ~index ~inner a.subs b.subs
      = Range_test.Disjoint)
    pairs

(* candidate promotion prefixes: empty, each single inner loop, each
   ordered pair of inner loops (the paper's permutations never needed
   more in the benchmark suite) *)
let promotion_prefixes (inner : Loops.loop list) : Loops.loop list list =
  let singles = List.map (fun l -> [ l ]) inner in
  let pairs =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b -> if a != b then Some [ a; b ] else None)
          inner)
      inner
  in
  ([] :: singles) @ pairs

let range_test_verdict ~budget env ~(target : Loops.loop)
    ~(inner : Loops.loop list) pairs : verdict =
  let try_prefix (prefix : Loops.loop list) : bool =
    (* each promoted loop must pass with earlier promotions fixed and
       everything else (including the target) collapsed *)
    let rec check_promoted before = function
      | [] -> true
      | s :: rest ->
        let collapsed =
          target :: List.filter (fun l -> not (List.memq l (before @ [ s ]))) inner
        in
        position_passes ~budget env ~tested:s ~collapsed pairs
        && check_promoted (before @ [ s ]) rest
    in
    check_promoted [] prefix
    &&
    let collapsed = List.filter (fun l -> not (List.memq l prefix)) inner in
    position_passes ~budget env ~tested:target ~collapsed pairs
  in
  let rec first_passing = function
    | [] -> Dependent "range test: overlap possible in every tested order"
    | prefix :: rest ->
      if try_prefix prefix then
        let desc =
          match prefix with
          | [] -> "range test"
          | ls ->
            Fmt.str "range test (promoted: %s)"
              (String.concat "," (List.map index_name ls))
        in
        Parallel desc
      else first_passing rest
  in
  first_passing (promotion_prefixes inner)

(* ------------------------------------------------------------------ *)
(* Baseline: GCD + Banerjee                                            *)

let banerjee_verdict ~budget ~(enclosing : Loops.loop list)
    ~(target : Loops.loop) ~(inner : Loops.loop list) pairs : verdict =
  let loops = enclosing @ [ target ] @ inner in
  let k = List.length enclosing in
  let indices = List.map index_name loops in
  let pair_ok ((a : Access.t), (b : Access.t)) =
    Gcd_test.test ~indices a.subs b.subs = Gcd_test.Independent
    || Banerjee.carries ~budget ~loops ~k a.subs b.subs = Banerjee.Independent
    || Siv.test
         ~enclosing:(List.map index_name enclosing)
         ~index:(index_name target)
         ~inner:(List.map index_name inner)
         a.subs b.subs
       = Siv.Independent
  in
  match List.find_opt (fun p -> not (pair_ok p)) pairs with
  | None -> Parallel "gcd/banerjee"
  | Some (a, _) ->
    Dependent (Fmt.str "banerjee: possible carried dependence on %s" a.Access.array)

(* ------------------------------------------------------------------ *)
(* Top-level per-loop array-dependence analysis                        *)

(** Array-dependence verdict for [target].

    [accesses] are the accesses of the target's body (use
    {!Analysis.Access.of_block}), already filtered of flagged reduction
    statements.  [env] must include loop-bound facts for enclosing,
    target and inner loops (use {!Analysis.Loops.nest_env}).

    [budget] (default: one drawn from {!budget_factory}) bounds the
    symbolic work of this one verdict; when it runs out the verdict
    degrades to a serial "dependence unknown" — never an exception, and
    never an unsound "independent". *)
let array_deps ?budget ~(method_ : method_) ~(symtab : Fir.Symtab.t)
    ~(env : Range.env) ~(enclosing : Loops.loop list) ~(target : Loops.loop)
    ~(inner : Loops.loop list) ~(body_writes : string list)
    ~(accesses : Access.t list) () : verdict =
  let t0 = Unix.gettimeofday () in
  (* [Fun.protect]: a fault mid-verdict (contained later by the
     pipeline guard) must not lose the elapsed-time accounting, and the
     counter updates below all happen before any point that can raise
     after them — accumulate-then-raise, deterministically. *)
  Fun.protect
    ~finally:(fun () -> add_wall (Unix.gettimeofday () -. t0))
  @@ fun () ->
  !verdict_hook (index_name target);
  let budget =
    match budget with Some b -> b | None -> !budget_factory ()
  in
  let body = target.dloop.body in
  let assigned_scalars =
    List.filter
      (fun v -> not (Fir.Symtab.is_array symtab v))
      (Fir.Stmt.assigned_names body)
  in
  (* arrays written anywhere in the body (callers analyzing one array at
     a time must pass the full set, or subscripted subscripts through
     arrays written elsewhere in the body would go unnoticed) *)
  let written_arrays =
    List.sort_uniq String.compare
      (body_writes
      @ List.filter_map
          (fun (a : Access.t) ->
            if a.kind = Access.Write then Some a.array else None)
          accesses)
  in
  let index_names =
    List.map index_name (enclosing @ [ target ] @ inner)
  in
  let key =
    { vk_method = method_;
      vk_enclosing = List.map loop_fingerprint enclosing;
      vk_target = loop_fingerprint target;
      vk_inner = List.map loop_fingerprint inner;
      vk_accesses =
        List.map (fun (a : Access.t) -> (a.array, a.kind, a.subs)) accesses;
      vk_assigned = assigned_scalars;
      vk_written = written_arrays;
      vk_env = env }
  in
  let verdict =
    Verdict_cache.memo_budgeted verdict_cache ~budget key (fun () ->
        (* soundness: reject unanalyzable subscripts *)
        let issue =
          List.fold_left
            (fun acc a ->
              match acc with
              | Some _ -> acc
              | None ->
                subscript_issue ~assigned_scalars ~written_arrays ~index_names a)
            None accesses
        in
        match issue with
        | Some (Varying_scalar v) ->
          Dependent (Fmt.str "subscript contains loop-varying scalar %s" v)
        | Some (Subscripted_subscript arr) ->
          Dependent
            (Fmt.str "subscripted subscript through array %s written in loop" arr)
        | None -> (
          let pairs = conflict_pairs accesses in
          if pairs = [] then Parallel "no conflicting accesses"
          else
            match method_ with
            | Range_symbolic -> range_test_verdict ~budget env ~target ~inner pairs
            | Banerjee_gcd -> banerjee_verdict ~budget ~enclosing ~target ~inner pairs))
  in
  (* a Dependent verdict reached with an exhausted budget is not a
     disproof, it is "analysis did not finish": degrade explicitly so
     the reason (and the counters) say so.  A Parallel verdict is kept —
     a proof that completed before the fuel ran out is still a proof. *)
  let verdict =
    match verdict with
    | Dependent why when Util.Budget.exhausted budget ->
      let c = live_counters () in
      c.unknown <- c.unknown + 1;
      Dependent
        (Fmt.str "analysis budget exhausted: dependence unknown, loop stays serial (last test: %s)"
           why)
    | v -> v
  in
  record method_ verdict;
  verdict
