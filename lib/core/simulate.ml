(** Execution of compiled programs on the simulated multiprocessor.

    Runs a program twice through the interpreter — once ignoring the
    DOALL annotations (serial time) and once honouring them on a
    [procs]-processor machine — and reports the simulated speedup.
    Execution is sequential either way, so the outputs are compared as
    a built-in sanity check. *)

type run = {
  serial_time : int;
  parallel_time : int;
  speedup : float;
  output : string list;
}

exception Output_mismatch

(** Time the program serially and in parallel on [procs] processors.
    @raise Output_mismatch if the two executions disagree (they cannot,
    unless the simulator itself is broken — this is an internal check). *)
let run ?(procs = 8) (program : Fir.Program.t) : run =
  let serial_cfg = Machine.Interp.default_config ~parallel:false ~procs () in
  let parallel_cfg = Machine.Interp.default_config ~parallel:true ~procs () in
  let rs = Machine.Interp.run ~cfg:serial_cfg program in
  let rp = Machine.Interp.run ~cfg:parallel_cfg program in
  if rs.output <> rp.output then raise Output_mismatch;
  { serial_time = rs.time;
    parallel_time = rp.time;
    speedup = Machine.Parsim.speedup ~seq:rs.time ~par:rp.time;
    output = rs.output }

(** End-to-end: compile [source] under [config] and simulate.

    The serial reference time is measured on the {e original} program:
    induction substitution trades recurrences for stronger arithmetic
    (the paper's §3.2 note on strength reduction), so timing the
    transformed program serially would overstate both pipelines.
    Returns (pipeline result, run). *)
let compile_and_run ?strict (config : Config.t) (source : string) :
    Pipeline.t * run =
  let original = Frontend.Parser.parse_string source in
  let serial_cfg =
    Machine.Interp.default_config ~parallel:false ~procs:config.procs ()
  in
  let rs = Machine.Interp.run ~cfg:serial_cfg original in
  let t = Pipeline.compile ?strict config source in
  let parallel_cfg =
    Machine.Interp.default_config ~parallel:true ~procs:config.procs ()
  in
  let rp = Machine.Interp.run ~cfg:parallel_cfg t.program in
  if rs.output <> rp.output then raise Output_mismatch;
  ( t,
    { serial_time = rs.time;
      parallel_time = rp.time;
      speedup = Machine.Parsim.speedup ~seq:rs.time ~par:rp.time;
      output = rs.output } )

(* ------------------------------------------------------------------ *)
(* The measured lane                                                   *)

type measured = {
  m_procs : int;
  serial_wall : float;
  parallel_wall : float;
  wall_speedup : float;
  serial_capture : Machine.Interp.capture;
  parallel_capture : Machine.Interp.capture;
  stats : Machine.Parexec.stats;
}

(** Execute [program] twice for real and time both: once on the plain
    serial interpreter and once with {!Machine.Parexec} running the
    annotated loops on [procs] OCaml domains (LRPD loops speculate
    against {!Fruntime.Specexec} shadows).  Both captures are returned
    so the caller can run the identity check it wants — this module
    deliberately does not compare them, because float reductions need
    the ULP-tolerant comparator that lives in [Valid.Oracle] and [core]
    sits below [valid] in the library stack. *)
let run_measured ?procs ?seed (program : Fir.Program.t) : measured =
  let procs =
    match procs with
    | Some p -> max 1 p
    | None -> Util.Env.runtime_procs
  in
  let cfg = Machine.Interp.default_config ~parallel:false ~procs ?seed () in
  let t0 = Unix.gettimeofday () in
  let serial_capture = Machine.Interp.run_full ~cfg program in
  let t1 = Unix.gettimeofday () in
  let parallel_capture, stats =
    Machine.Parexec.run_full ~cfg ~procs ~spec:Fruntime.Specexec.backend
      program
  in
  let t2 = Unix.gettimeofday () in
  let serial_wall = t1 -. t0 and parallel_wall = t2 -. t1 in
  { m_procs = procs;
    serial_wall;
    parallel_wall;
    wall_speedup =
      (if parallel_wall <= 0.0 then 0.0 else serial_wall /. parallel_wall);
    serial_capture;
    parallel_capture;
    stats }
