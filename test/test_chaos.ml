(* Fault-injection (chaos) suite for the fail-safe pipeline: injected
   exceptions and IR corruptions must be contained and attributed by
   Core.Pipeline, budget exhaustion must degrade verdicts to serial
   "unknown" (never an unsound "independent"), the degraded output must
   stay oracle-equivalent to the original, and --strict must re-raise.
   Everything is seeded, so any failure replays from its seed. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let small_src = {|
      PROGRAM CHAOTIC
      INTEGER I, K
      REAL A(60), S
      K = 3
      S = 0.0
      DO 10 I = 1, 50
        A(I) = I * 0.5 + K
 10   CONTINUE
      DO 20 I = 1, 50
        S = S + A(I)
 20   CONTINUE
      PRINT *, S
      END
|}

(* ------------------------------------------------------------------ *)
(* Direct containment checks, one per injected pass                    *)

let test_containment_per_pass () =
  List.iter
    (fun pass ->
      let fault_hook p _prog =
        if p = pass then failwith ("boom in " ^ pass)
      in
      let t =
        Core.Pipeline.compile ~fault_hook (Core.Config.polaris ()) small_src
      in
      Alcotest.(check int)
        (pass ^ ": exactly one incident")
        1
        (List.length t.incidents);
      let i = List.hd t.incidents in
      Alcotest.(check string) (pass ^ ": attributed") pass i.inc_pass;
      Alcotest.(check bool) (pass ^ ": rolled back") true i.inc_rolled_back;
      (* the surviving program must still be consistent and runnable *)
      ignore (Fir.Consistency.check t.program);
      match Valid.Oracle.execute t.program with
      | Valid.Oracle.Finished _ -> ()
      | Valid.Oracle.Fault m ->
        Alcotest.failf "%s: degraded program faults: %s" pass m)
    [ "inline"; "constprop"; "induction"; "constprop2"; "deadcode";
      "parallelize" ]

let test_corruption_contained () =
  (* corrupt the IR inside the guard: the post-pass consistency check
     must catch it, roll back, and name the violation.  The planted
     duplicate announces itself through [Program.touch], as a pass and
     [Valid.Chaos.corrupt] do: the guard checks touched units only *)
  let fault_hook p (prog : Fir.Program.t) =
    if p = "induction" then
      match Fir.Program.units prog with
      | u :: _ ->
        Fir.Program.touch prog u;
        u.pu_body <- List.hd u.pu_body :: u.pu_body
      | [] -> ()
  in
  let t =
    Core.Pipeline.compile ~fault_hook (Core.Config.polaris ()) small_src
  in
  Alcotest.(check int) "one incident" 1 (List.length t.incidents);
  let i = List.hd t.incidents in
  Alcotest.(check string) "attributed to induction" "induction" i.inc_pass;
  Alcotest.(check bool) "reason names the consistency violation" true
    (contains i.inc_reason "consistency violation");
  (* rollback erased the duplicate statement *)
  ignore (Fir.Consistency.check t.program)

let test_capability_disabled () =
  (* a fault in the first propagation round must disable the capability:
     constprop2 is skipped, so exactly one incident, not two *)
  let fired = ref [] in
  let fault_hook p _ =
    if p = "constprop" || p = "constprop2" then begin
      fired := p :: !fired;
      failwith "boom"
    end
  in
  let t =
    Core.Pipeline.compile ~fault_hook (Core.Config.polaris ()) small_src
  in
  Alcotest.(check (list string)) "only the first round ran" [ "constprop" ]
    !fired;
  Alcotest.(check int) "one incident" 1 (List.length t.incidents);
  Alcotest.(check (option string)) "capability disabled" (Some "constprop")
    (List.hd t.incidents).inc_disabled

let test_strict_reraises () =
  let fault_hook p _ = if p = "deadcode" then failwith "boom" in
  Alcotest.check_raises "strict re-raises" (Failure "boom") (fun () ->
      ignore
        (Core.Pipeline.compile ~strict:true ~fault_hook
           (Core.Config.polaris ()) small_src))

let test_clean_run_has_no_incidents () =
  let t = Core.Pipeline.compile (Core.Config.polaris ()) small_src in
  Alcotest.(check bool) "clean" true (Core.Pipeline.clean t);
  Alcotest.(check int) "no incidents" 0 (List.length t.incidents)

(* ------------------------------------------------------------------ *)
(* Budget exhaustion must degrade, never lie                           *)

(* writes A(51..99), reads A(1..49): independent, but only a completed
   range-test proof shows it (not a reduction, not privatizable); with a
   zero budget the test exhausts and the verdict must degrade to
   serial/unknown — never to "independent" *)
let budget_src = {|
      PROGRAM TIGHT
      INTEGER I
      REAL A(100)
      DO 10 I = 1, 49
        A(I+50) = A(I) + 1.0
 10   CONTINUE
      PRINT *, A(60)
      END
|}

let test_budget_exhaustion_degrades () =
  (* sanity: with the default budget the loop parallelizes *)
  let roomy = Core.Pipeline.compile (Core.Config.polaris ()) budget_src in
  Alcotest.(check bool) "roomy budget: parallel" true
    (List.exists
       (fun (l : Core.Pipeline.loop_result) -> l.report.parallel)
       roomy.loops);
  let before = (Dep.Driver.counters_snapshot ()).unknown in
  let cfg = { (Core.Config.polaris ()) with budget_steps = 0 } in
  let t = Core.Pipeline.compile cfg budget_src in
  Alcotest.(check bool) "no incidents (degradation is not a fault)" true
    (Core.Pipeline.clean t);
  List.iter
    (fun (l : Core.Pipeline.loop_result) ->
      Alcotest.(check bool)
        ("loop " ^ l.report.loop_index ^ " serial under zero budget")
        false l.report.parallel;
      Alcotest.(check bool) "reason says budget exhausted" true
        (contains l.report.reason "budget exhausted"))
    t.loops;
  Alcotest.(check bool) "unknown counter incremented" true
    ((Dep.Driver.counters_snapshot ()).unknown > before)

(* Non-linear subscripts (I*I+I vs I*I) grind through Symbolic.Compare:
   the full budget completes the monotonicity proof (the accesses really
   are disjoint), but a tiny step fuel must exhaust mid-proof and
   surface as a budget-unknown serial verdict — never an exception and
   never a wrong "independent" (satellite: ISSUE item 3). *)
let nonlinear_src = {|
      PROGRAM NLIN
      INTEGER I, N
      REAL A(10000)
      N = 90
      DO 10 I = 1, N
        A(I*I + I) = A(I*I) + 1.0
 10   CONTINUE
      PRINT *, A(2)
      END
|}

let test_nonlinear_budget_never_lies () =
  (* full budget: the proof completes, the loop is genuinely parallel —
     the budget machinery must not degrade verdicts it can afford *)
  let roomy = Core.Pipeline.compile (Core.Config.polaris ()) nonlinear_src in
  Alcotest.(check bool) "full budget: proof completes" true
    (List.exists
       (fun (l : Core.Pipeline.loop_result) -> l.report.parallel)
       roomy.loops);
  List.iter
    (fun steps ->
      let before = (Dep.Driver.counters_snapshot ()).unknown in
      let cfg = { (Core.Config.polaris ()) with budget_steps = steps } in
      let t = Core.Pipeline.compile cfg nonlinear_src in
      Alcotest.(check bool)
        (Fmt.str "steps=%d: contained" steps)
        true (Core.Pipeline.clean t);
      (* starved of fuel, the proof cannot finish: the verdict must land
         on the safe side (serial, budget-unknown), never on a guessed
         "independent" and never on an exception *)
      List.iter
        (fun (l : Core.Pipeline.loop_result) ->
          Alcotest.(check bool)
            (Fmt.str "steps=%d: loop %s serial" steps l.report.loop_index)
            false l.report.parallel;
          Alcotest.(check bool)
            (Fmt.str "steps=%d: reason says budget exhausted" steps)
            true
            (contains l.report.reason "budget exhausted"))
        t.loops;
      Alcotest.(check bool)
        (Fmt.str "steps=%d: unknown counter moved" steps)
        true
        ((Dep.Driver.counters_snapshot ()).unknown > before))
    [ 0; 5; 50 ]

(* ------------------------------------------------------------------ *)
(* Budget decisions pinned                                             *)

(* Every loop verdict of the 16 suite codes at four small budgets, with
   caches on and off, against [golden/budget_verdicts.txt].  A budget
   degrades a verdict only through the steps the symbolic core charges,
   so a change that moves a step-charging site or a memo site moves a
   line here; a faster core must leave the file as it is.  The caches-on
   pass runs the budgets in rising order on warm tables, so cost replay
   ([Cache.memo_budgeted]) is exercised too.  On a mismatch the output
   is written to [budget_verdicts.out] beside the test binary. *)
let budget_golden_steps = [ 50; 100; 200; 1_000 ]

let budget_verdicts ~caches =
  let buf = Buffer.create 65536 in
  List.iter
    (fun steps ->
      let cfg = { (Core.Config.polaris ()) with budget_steps = steps; caches } in
      let lines = Buffer.create 8192 in
      let total = ref 0 and par = ref 0 and degraded = ref 0 in
      List.iter
        (fun (c : Suite.Code.t) ->
          let t = Core.Pipeline.compile cfg c.source in
          List.iter
            (fun (l : Core.Pipeline.loop_result) ->
              let r = l.report in
              incr total;
              if r.parallel then incr par;
              if contains r.reason "budget exhausted" then incr degraded;
              Printf.bprintf lines "%s %s %s %s: %s\n" c.name l.unit_name
                r.loop_index
                (if r.speculative then "speculative"
                 else if r.parallel then "parallel"
                 else "serial")
                r.reason)
            t.loops)
        Suite.Registry.all;
      Printf.bprintf buf "== budget %d: %d/%d parallel, %d degraded by budget\n"
        steps !par !total !degraded;
      Buffer.add_buffer buf lines)
    budget_golden_steps;
  Buffer.contents buf

let test_budget_golden () =
  let golden =
    In_channel.with_open_bin "golden/budget_verdicts.txt" In_channel.input_all
  in
  List.iter
    (fun caches ->
      let got =
        Util.Cachectl.clear_all ();
        budget_verdicts ~caches
      in
      if not (String.equal golden got) then begin
        Out_channel.with_open_bin "budget_verdicts.out" (fun oc ->
            output_string oc got);
        let g = String.split_on_char '\n' golden
        and o = String.split_on_char '\n' got in
        let rec first_diff i = function
          | x :: xs, y :: ys when String.equal x y -> first_diff (i + 1) (xs, ys)
          | x :: _, y :: _ -> Fmt.str "line %d: golden %S, got %S" i x y
          | [], y :: _ -> Fmt.str "line %d: golden ends, got %S" i y
          | x :: _, [] -> Fmt.str "line %d: golden %S, got nothing" i x
          | [], [] -> "no line differs"
        in
        Alcotest.failf
          "caches %s: verdicts drifted from golden/budget_verdicts.txt (%s); \
           output in budget_verdicts.out"
          (if caches then "on" else "off")
          (first_diff 1 (g, o))
      end)
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* The seeded sweep: >= 100 seeds across the suite corpus              *)

let test_sweep () =
  let sources = Valid.Chaos.default_sources () in
  let sweep =
    Valid.Chaos.run_sweep ~procs_list:[ 4 ] ~first_seed:1 ~n:100 sources
  in
  if not (Valid.Chaos.sweep_ok sweep) then
    Alcotest.failf "chaos sweep violated the containment contract:@.%a"
      Valid.Chaos.pp_sweep sweep;
  Alcotest.(check int) "100 seeds ran" 100 sweep.sw_seeds;
  (* injections must actually bite: the overwhelming majority of plans
     target passes that run, so containment events must be plentiful *)
  Alcotest.(check bool)
    (Fmt.str "most seeds contained a fault (%d/100)" sweep.sw_contained)
    true
    (sweep.sw_contained >= 60)

(* ------------------------------------------------------------------ *)
(* Fault containment with worker domains (satellite: multicore chaos)  *)

(* Injected faults and zero-budget plans must be contained, attributed
   and rolled back identically whether the dependence analysis runs
   serially or fans out across 4 domains: the outcome JSON (which
   carries the incidents, the attribution and the budget-unknown
   counter delta) must match field for field. *)
(* Statement ids are fresh on every compile (a global counter), so an
   incident message like "duplicate statement id 27481" differs between
   any two compiles of the same source — serial vs serial included.
   Mask only the digit run after "id " before comparing; every other
   number (seed, counters, deltas) must still match exactly. *)
let mask_sids s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if !i + 3 <= n && String.sub s !i 3 = "id " then begin
      Buffer.add_string buf "id #";
      i := !i + 3;
      while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
        incr i
      done
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let test_parallel_sweep_matches_serial () =
  let sources = Valid.Chaos.default_sources () in
  for seed = 1 to 12 do
    let _, source = List.nth sources ((seed - 1) mod List.length sources) in
    let plan = Valid.Chaos.make_plan seed in
    let serial = Valid.Chaos.run_plan plan source in
    let pooled =
      Util.Pool.with_jobs 4 (fun () -> Valid.Chaos.run_plan plan source)
    in
    Alcotest.(check string)
      (Fmt.str "seed %d: -j4 outcome = serial outcome" seed)
      (mask_sids (Valid.Chaos.outcome_json serial))
      (mask_sids (Valid.Chaos.outcome_json pooled))
  done

(* A fault raised {e inside} a worker domain mid-analysis: the verdict
   hook fires on the second sibling loop's index.  At -j4 both loops'
   analyses may already be in flight when K's task dies, but the
   deterministic merge must surface the same incident, the same
   rollback and the same counter deltas as the serial run, where loop
   I's analysis completed and loop K's raised. *)
let wfault_src = {|
      PROGRAM WFAULT
      INTEGER I, K
      REAL A(80), B(80)
      DO 10 I = 1, 60
        A(I) = I * 2.0
 10   CONTINUE
      DO 20 K = 1, 60
        B(K) = K * 3.0
 20   CONTINUE
      PRINT *, A(5), B(5)
      END
|}

let test_worker_fault_containment () =
  let with_hook f =
    let saved = !Dep.Driver.verdict_hook in
    Dep.Driver.verdict_hook :=
      (fun index -> if index = "K" then failwith "worker boom on K");
    Fun.protect ~finally:(fun () -> Dep.Driver.verdict_hook := saved) f
  in
  let signature () =
    let c0 = Dep.Driver.counters_snapshot () in
    let t = Core.Pipeline.compile (Core.Config.polaris ()) wfault_src in
    let c1 = Dep.Driver.counters_snapshot () in
    ( Core.Pipeline.output_source t,
      List.map
        (fun (l : Core.Pipeline.loop_result) ->
          (l.unit_name, l.report.loop_index, l.report.parallel, l.report.reason))
        t.loops,
      List.map
        (fun (i : Core.Pipeline.incident) ->
          (i.inc_pass, i.inc_reason, i.inc_rolled_back, i.inc_disabled))
        t.incidents,
      ( c1.range_proved - c0.range_proved,
        c1.linear_proved - c0.linear_proved,
        c1.unknown - c0.unknown ) )
  in
  let serial = with_hook signature in
  let (_, _, serial_incidents, _) = serial in
  (* the fault must actually fire and be contained+attributed *)
  Alcotest.(check int) "serial: one incident" 1 (List.length serial_incidents);
  let (pass, reason, rolled_back, _) = List.hd serial_incidents in
  Alcotest.(check string) "attributed to parallelize" "parallelize" pass;
  Alcotest.(check bool) "reason names the worker fault" true
    (contains reason "worker boom on K");
  Alcotest.(check bool) "rolled back" true rolled_back;
  let pooled =
    Util.Pool.with_jobs 8 (fun () -> with_hook signature)
  in
  Alcotest.(check bool) "-j8 containment identical to serial" true
    (serial = pooled)

let test_plan_determinism () =
  let p1 = Valid.Chaos.make_plan 42 and p2 = Valid.Chaos.make_plan 42 in
  Alcotest.(check string) "same seed, same plan"
    (Fmt.str "%a" Valid.Chaos.pp_plan p1)
    (Fmt.str "%a" Valid.Chaos.pp_plan p2);
  let o1 = Valid.Chaos.run_plan p1 small_src
  and o2 = Valid.Chaos.run_plan p2 small_src in
  Alcotest.(check string) "same seed, same outcome"
    (Valid.Chaos.outcome_json o1) (Valid.Chaos.outcome_json o2)

let tests =
  [ Alcotest.test_case "containment: every pass" `Quick
      test_containment_per_pass;
    Alcotest.test_case "containment: IR corruption" `Quick
      test_corruption_contained;
    Alcotest.test_case "containment: capability disabled" `Quick
      test_capability_disabled;
    Alcotest.test_case "strict mode re-raises" `Quick test_strict_reraises;
    Alcotest.test_case "clean run has no incidents" `Quick
      test_clean_run_has_no_incidents;
    Alcotest.test_case "budget exhaustion degrades to serial" `Quick
      test_budget_exhaustion_degrades;
    Alcotest.test_case "non-linear subscript never lies" `Quick
      test_nonlinear_budget_never_lies;
    Alcotest.test_case "seeded sweep (100 seeds)" `Slow test_sweep;
    Alcotest.test_case "parallel sweep matches serial" `Slow
      test_parallel_sweep_matches_serial;
    Alcotest.test_case "worker fault containment" `Quick
      test_worker_fault_containment;
    Alcotest.test_case "plans are deterministic" `Quick
      test_plan_determinism;
    Alcotest.test_case "budget decisions match the golden" `Quick
      test_budget_golden ]
