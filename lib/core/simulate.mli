(** Execution of compiled programs on the simulated multiprocessor. *)

type run = {
  serial_time : int;     (** simulated time, annotations ignored *)
  parallel_time : int;   (** simulated time honouring DOALL annotations *)
  speedup : float;
  output : string list;  (** the program's PRINT lines *)
}

exception Output_mismatch
(** Raised if the serial and parallel-timed executions disagree — an
    internal invariant of the simulator (execution is sequential either
    way). *)

(** Time a compiled program serially and on [procs] processors. *)
val run : ?procs:int -> Fir.Program.t -> run

(** Compile [source] under a configuration and simulate it.  The serial
    reference time is measured on the {e original} program, because
    induction substitution trades recurrences for stronger arithmetic
    (paper §3.2).  [strict] is passed to {!Pipeline.compile}: pass
    faults re-raise instead of being contained. *)
val compile_and_run : ?strict:bool -> Config.t -> string -> Pipeline.t * run

type measured = {
  m_procs : int;                 (** OCaml domains used *)
  serial_wall : float;           (** wall-clock seconds, serial interpreter *)
  parallel_wall : float;         (** wall-clock seconds, {!Machine.Parexec} *)
  wall_speedup : float;          (** serial_wall / parallel_wall *)
  serial_capture : Machine.Interp.capture;
  parallel_capture : Machine.Interp.capture;
  stats : Machine.Parexec.stats; (** regions forked, speculation outcomes *)
}

(** The {e measured} lane: execute a compiled program for real, serially
    and on [procs] OCaml domains, and time both with a wall clock.  The
    modeled lane ({!run}) prices the paper's 8-way machine; this one
    measures this machine.  [procs] defaults to [POLARIS_RUNTIME_PROCS]
    or the host's recommended domain count.  Captures are returned
    uncompared (use [Valid.Oracle] for the ULP-tolerant identity
    check). *)
val run_measured : ?procs:int -> ?seed:int -> Fir.Program.t -> measured
