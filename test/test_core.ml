(* End-to-end pipeline tests: compile + simulate, configuration
   differences, ablations. *)

let test_pipeline_counts () =
  let c = Suite.Registry.find "BDNA" in
  let t = Core.Pipeline.compile (Core.Config.polaris ()) c.source in
  Alcotest.(check bool) "some loops parallel" true
    (List.length (Core.Pipeline.parallel_loops t) > 0);
  Alcotest.(check bool) "some loops serial" true
    (List.length (Core.Pipeline.serial_loops t) > 0)

let test_pipeline_output_source_parses () =
  let c = Suite.Registry.find "OCEAN" in
  let t = Core.Pipeline.compile (Core.Config.polaris ()) c.source in
  let out = Core.Pipeline.output_source t in
  (* the annotated output must re-parse (directives are comments) *)
  let p = Frontend.Parser.parse_string out in
  Alcotest.(check bool) "units preserved" true
    (List.length (Fir.Program.units p) >= 1)

let test_simulate_consistency () =
  let c = Suite.Registry.find "MDG" in
  let _, r = Core.Simulate.compile_and_run (Core.Config.polaris ()) c.source in
  Alcotest.(check bool) "parallel <= serial" true (r.parallel_time <= r.serial_time);
  Alcotest.(check bool) "speedup > 1" true (r.speedup > 1.0)

let test_polaris_beats_baseline_where_expected () =
  List.iter
    (fun name ->
      let c = Suite.Registry.find name in
      let _, rp = Core.Simulate.compile_and_run (Core.Config.polaris ()) c.source in
      let _, rb = Core.Simulate.compile_and_run (Core.Config.baseline ()) c.source in
      Alcotest.(check bool) (name ^ ": polaris ahead") true (rp.speedup > rb.speedup))
    [ "TRFD"; "OCEAN"; "BDNA"; "MDG"; "TOMCATV"; "APPSP" ]

let test_baseline_wins_su2cor_wave5 () =
  (* the paper's "two of sixteen" *)
  List.iter
    (fun name ->
      let c = Suite.Registry.find name in
      let _, rp = Core.Simulate.compile_and_run (Core.Config.polaris ()) c.source in
      let _, rb = Core.Simulate.compile_and_run (Core.Config.baseline ()) c.source in
      Alcotest.(check bool) (name ^ ": baseline ahead") true (rb.speedup > rp.speedup))
    [ "SU2COR"; "WAVE5" ]

let test_ablation_ordering () =
  (* removing a technique never helps on the codes that need it *)
  let speedup cfg src =
    let _, r = Core.Simulate.compile_and_run cfg src in
    r.speedup
  in
  let trfd = (Suite.Registry.find "TRFD").source in
  let full = speedup (Core.Config.polaris ()) trfd in
  let no_gen = speedup (Core.Config.without_generalized_induction ()) trfd in
  Alcotest.(check bool) "TRFD needs generalized induction" true (full > no_gen);
  let ocean = (Suite.Registry.find "OCEAN").source in
  let fullo = speedup (Core.Config.polaris ()) ocean in
  let no_inline = speedup (Core.Config.without_inline ()) ocean in
  Alcotest.(check bool) "OCEAN needs inlining" true (fullo > no_inline)

let test_speculative_candidates_reported () =
  let c = Suite.Registry.find "WAVE5" in
  let t = Core.Pipeline.compile (Core.Config.polaris ()) c.source in
  Alcotest.(check bool) "WAVE5 has LRPD candidates" true
    (List.length (Core.Pipeline.speculative_candidates t) > 0)

let test_determinism_end_to_end () =
  let c = Suite.Registry.find "FLO52" in
  let _, r1 = Core.Simulate.compile_and_run (Core.Config.polaris ()) c.source in
  let _, r2 = Core.Simulate.compile_and_run (Core.Config.polaris ()) c.source in
  Alcotest.(check int) "same serial time" r1.serial_time r2.serial_time;
  Alcotest.(check int) "same parallel time" r1.parallel_time r2.parallel_time

(* The pass guard re-checks and rolls back only the units a pass
   announced through [Fir.Program.touch], so the guard rests on this
   contract: a pass that changes a unit's text bumps its version.
   [parallelize] writes only loop decisions (the CPOLARIS$ lines) and by
   design does not touch, so those lines are left out of the text. *)
let unit_text (u : Fir.Punit.t) =
  String.split_on_char '\n' (Frontend.Unparse.unit_to_string u)
  |> List.filter (fun l -> not (String.starts_with ~prefix:"CPOLARIS$" l))

let test_passes_touch_what_they_rewrite () =
  let rewrites = ref 0 and violations = ref [] in
  List.iter
    (fun (c : Suite.Code.t) ->
      List.iter
        (fun (config : Core.Config.t) ->
          let seen = ref [] in
          let observer pass prog =
            List.iter
              (fun (u : Fir.Punit.t) ->
                let now = (Fir.Punit.version u, unit_text u) in
                (match List.assq_opt u !seen with
                | Some (version, text) when text <> snd now ->
                  incr rewrites;
                  if version = fst now then
                    violations :=
                      Fmt.str "%s/%s: %s rewrote %s untouched" c.name config.name
                        pass u.pu_name
                      :: !violations
                | _ -> ());
                seen := (u, now) :: List.remove_assq u !seen)
              (Fir.Program.units prog)
          in
          ignore (Core.Pipeline.compile ~observer config c.source : Core.Pipeline.t))
        [ Core.Config.polaris (); Core.Config.baseline () ])
    Suite.Registry.all;
  Alcotest.(check bool) "some pass rewrote some unit" true (!rewrites > 0);
  Alcotest.(check (list string)) "no unit rewritten without a touch" []
    (List.rev !violations)

(* every configuration runs the passes of [Pass_id.all] in that order
   (paper §3); only inlining depends on the configuration *)
let test_fixed_pass_order () =
  let source = (Suite.Registry.find "OCEAN").source in
  let all = List.map Core.Pass_id.name Core.Pass_id.all in
  Alcotest.(check (list string)) "paper order"
    [ "inline"; "constprop"; "induction"; "constprop2"; "deadcode";
      "parallelize" ]
    all;
  List.iter
    (fun ((config : Core.Config.t), want) ->
      let seen = ref [] in
      let observer pass _ = seen := pass :: !seen in
      ignore (Core.Pipeline.compile ~observer config source : Core.Pipeline.t);
      Alcotest.(check (list string)) config.name ("parse" :: want)
        (List.rev !seen))
    [ (Core.Config.polaris (), all);
      (Core.Config.baseline (), List.filter (( <> ) "inline") all);
      (Core.Config.without_inline (), List.filter (( <> ) "inline") all) ]

let tests =
  [ ("pipeline runs the fixed pass order", `Quick, test_fixed_pass_order);
    ("pipeline loop counts", `Quick, test_pipeline_counts);
    ("annotated output reparses", `Quick, test_pipeline_output_source_parses);
    ("simulate consistency", `Quick, test_simulate_consistency);
    ("polaris ahead where expected", `Slow, test_polaris_beats_baseline_where_expected);
    ("baseline ahead on SU2COR/WAVE5", `Slow, test_baseline_wins_su2cor_wave5);
    ("ablations hurt where expected", `Slow, test_ablation_ordering);
    ("speculative candidates reported", `Quick, test_speculative_candidates_reported);
    ("end-to-end determinism", `Quick, test_determinism_end_to_end);
    ("passes touch the units they rewrite", `Quick,
     test_passes_touch_what_they_rewrite) ]
