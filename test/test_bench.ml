(* The paper's experiments, pinned: [bench/main.exe NAME] must print
   exactly [golden/bench/NAME.txt].  Each of these experiments is a
   deterministic simulated-time measurement, so its output is the same
   at every -j and runtime processor count; a change that moves a
   number in a table or figure shows up here as a failing test. *)

let experiments =
  [ "table1"; "fig1"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7";
    "coverage"; "ablation" ]

let bench_exe = "../bench/main.exe"

let lines s = String.split_on_char '\n' s

let test_golden name () =
  let ic = Unix.open_process_args_in bench_exe [| bench_exe; name |] in
  let got = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "%s %s did not exit 0" bench_exe name);
  let expected =
    In_channel.with_open_bin ("golden/bench/" ^ name ^ ".txt") In_channel.input_all
  in
  (* name the first differing line rather than dumping both outputs *)
  let rec first_diff i = function
    | e :: es, g :: gs -> if String.equal e g then first_diff (i + 1) (es, gs) else Some (i, e, g)
    | [], [] -> None
    | e :: _, [] -> Some (i, e, "<end of output>")
    | [], g :: _ -> Some (i, "<end of golden>", g)
  in
  match first_diff 1 (lines expected, lines got) with
  | None -> ()
  | Some (i, e, g) ->
    Alcotest.failf "%s differs from golden/bench/%s.txt at line %d:\n  golden: %s\n  output: %s"
      name name i e g

let tests =
  List.map (fun name -> (name ^ " matches its golden", `Quick, test_golden name)) experiments
