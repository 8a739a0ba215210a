(** Speculative DOALL execution with the PD test (paper §3.5).

    Orchestrates one speculative instantiation of a loop whose access
    pattern is unknown at compile time:

    + run the loop through the interpreter with the access hook
      attached, collecting per-iteration costs and the access trace of
      the tested shared array;
    + feed the trace to the {!Shadow} marking and run the
      post-execution analysis;
    + price the outcome: on success the loop costs the speculative
      parallel time plus the PD overhead; on failure the checkpointed
      state is restored and the loop re-executes sequentially.

    Execution is always semantically sequential (the interpreter runs
    the loop in order); only the *timing* reflects the speculation, as
    everywhere else in the simulator. *)

open Fir

type outcome = {
  verdict : Shadow.verdict;
  t_seq : int;          (** sequential time of the loop *)
  t_spec : int;         (** speculative parallel time incl. marking *)
  t_pd_analysis : int;  (** post-execution analysis time *)
  t_checkpoint : int;
  t_restore : int;      (** only paid on failure *)
  t_total : int;        (** what this instantiation costs end-to-end *)
  accesses : int;
  iterations : int;
  checkpoint : Machine.Storage.data option;
      (** contents of the tested array at loop entry — what a failed
          speculation must restore *)
  tested_alloc : Machine.Storage.alloc option;
      (** the tested array's live allocation, so callers (and tests) can
          exercise {!Machine.Storage.restore} against the checkpoint *)
}

(** Potential slowdown of this instantiation had the test failed:
    (T_seq + T_pdt) / T_seq (paper Fig. 6, bottom). *)
let potential_slowdown (o : outcome) =
  if o.t_seq = 0 then 1.0
  else
    float_of_int (o.t_seq + o.t_spec + o.t_pd_analysis + o.t_checkpoint + o.t_restore)
    /. float_of_int o.t_seq

let speedup (o : outcome) =
  if o.t_total = 0 then 1.0 else float_of_int o.t_seq /. float_of_int o.t_total

(** Run program [prog] (whose main unit contains the speculative loop
    marked by [loop_sid]) once, speculating on [array]; [procs] selects
    the machine size.  [shadow_size] defaults to the declared size of
    [array] in the main unit. *)
let run ?(cost = Pd_test.default_cost) ?(procs = 8) ~(loop_sid : int)
    ~(array : string) ?(shadow_size : int option) (prog : Program.t) : outcome =
  let array = Symtab.norm array in
  let main = Program.main prog in
  let size =
    match shadow_size with
    | Some n -> n
    | None -> (
      match Symtab.find_opt main.pu_symtab array with
      | Some sym -> (
        match Symtab.const_size sym with
        | Some n -> n
        | None -> invalid_arg "Speculative.run: array size unknown")
      | None -> invalid_arg "Speculative.run: array not declared in main")
  in
  let shadow = Shadow.create size in
  let accesses = ref 0 in
  let iter_costs = ref [] in
  let in_loop = ref false in
  let iter_start_time = ref 0 in
  let iterations = ref 0 in
  let cfg = Machine.Interp.default_config ~parallel:false ~procs () in
  let st = Machine.Interp.fresh_state ~cfg prog in
  let checkpoint = ref None in
  let tested_alloc = ref None in
  let fr = Machine.Interp.main_frame st in
  st.on_loop_iter <-
    Some
      (fun sid k time ->
        if sid = loop_sid then begin
          if not !in_loop then begin
            (* loop entry: checkpoint the tested array so a failed
               speculation can restore it (paper §3.5.3) *)
            let b = Machine.Interp.binding_for st fr array in
            tested_alloc := Some b.view.alloc;
            checkpoint := Some (Machine.Storage.snapshot b.view.alloc)
          end;
          if k > 0 || !in_loop then begin
            iter_costs := (time - !iter_start_time) :: !iter_costs;
            Shadow.end_iteration shadow
          end;
          iter_start_time := time;
          in_loop := true
        end);
  st.on_loop_done <-
    Some (fun sid _time -> if sid = loop_sid then in_loop := false);
  st.on_access <-
    Some
      (fun rw name idx ->
        if !in_loop && String.equal name array then begin
          incr accesses;
          match rw with
          | Machine.Interp.R -> Shadow.read shadow idx
          | Machine.Interp.W -> Shadow.write shadow idx
        end);
  Machine.Interp.run_unit_body st fr;
  (* the final on_loop_iter event (k = trips) closed the last iteration;
     the cost list is reversed and one entry longer than the trip count
     only if the loop ran at least once *)
  let costs = Array.of_list (List.rev !iter_costs) in
  iterations := Array.length costs;
  let t_seq = Array.fold_left ( + ) 0 costs in
  let analysis = Shadow.analyze ~total_accesses:!accesses shadow in
  let verdict = Shadow.verdict_of_analysis analysis in
  let mach = Machine.Parsim.default ~procs () in
  (* pricing follows the shadow analysis: a plain Parallel verdict
     privatizes nothing and merges nothing; Parallel_privatized pays
     one private copy of the tested array per processor plus the
     last-value merge of every element the loop wrote; a failed
     speculation ran unprivatized, so its attempt also charges
     nothing here (the restore + serial re-run are priced below) *)
  let n_private, reduction_elems =
    match verdict with
    | Shadow.Parallel_privatized -> (1, analysis.Shadow.marks)
    | Shadow.Parallel | Shadow.Not_parallel -> (0, 0)
  in
  let body =
    Machine.Parsim.doall_time mach ~iter_costs:costs ~n_private
      ~reduction_elems
  in
  let t_spec = body + Pd_test.marking_time cost ~accesses:!accesses ~p:procs in
  let t_pd_analysis = Pd_test.analysis_time cost ~size ~p:procs in
  let t_checkpoint = Pd_test.checkpoint_time cost ~size ~p:procs in
  let t_restore = Pd_test.restore_time cost ~size ~p:procs in
  let t_total =
    match verdict with
    | Shadow.Parallel | Shadow.Parallel_privatized ->
      t_checkpoint + t_spec + t_pd_analysis
    | Shadow.Not_parallel ->
      (* failed speculation: pay the attempt, restore, re-run serially *)
      t_checkpoint + t_spec + t_pd_analysis + t_restore + t_seq
  in
  { verdict; t_seq; t_spec; t_pd_analysis; t_checkpoint; t_restore; t_total;
    accesses = !accesses; iterations = !iterations;
    checkpoint = !checkpoint; tested_alloc = !tested_alloc }
