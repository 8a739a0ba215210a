(** The parallelization driver: per-loop DOALL decisions.

    For every loop (outermost first) this pass combines the analyses:
    reduction recognition (§3.2), scalar classification (§3.4),
    dependence testing per array (§3.3) with array privatization (§3.4)
    as the fallback for failed arrays, and marks the loop's
    {!Fir.Ast.loop_info} in place.  Loops defeated only by subscripted
    subscripts are flagged [speculative]: candidates for the run-time
    PD test (§3.5).

    The [mode] selects Polaris (range test + array privatization +
    histogram reductions) or the baseline "current compiler"
    configuration (GCD/Banerjee, scalar privatization, scalar
    single-address reductions only). *)

open Fir
open Ast
open Symbolic
module Loops = Analysis.Loops
module Access = Analysis.Access
module Defuse = Analysis.Defuse

type mode = Polaris | Baseline

(** The caches this pass looks up in [mode], by {!Util.Cachectl} name;
    the pipeline records them against the cache counters for
    [--explain-reuse].  The baseline's GCD/Banerjee tests and scalar
    privatization never reach the [Compare] engine. *)
let consumes = function
  | Polaris ->
    [ "poly.of_expr"; "range_prop.env_at"; "compare.eliminate";
      "compare.monotonicity"; "dep.verdict" ]
  | Baseline -> [ "poly.of_expr"; "range_prop.env_at"; "dep.verdict" ]

type loop_report = {
  loop_index : string;
  loop_sid : int;
  parallel : bool;
  speculative : bool;
  reason : string;
}

(* scalar [v] is read after the loop: it escapes the unit
   ({!Fir.Punit.escapes}), or the unit mentions it outside the loop body
   (conservative liveness) *)
let live_after (u : Punit.t) (d : do_loop) v =
  Punit.escapes u v
  ||
  let inside = Stmt.fold (fun acc s -> s.sid :: acc) [] d.body in
  Stmt.fold
    (fun acc (s : stmt) ->
      acc
      || (not (List.mem s.sid inside))
         && List.exists (fun (_, e) -> Expr.mentions v e) (Stmt.exprs_of s))
    false u.pu_body

(** Analysis of one nest, {e side-effect-free}: returns the report and
    a deferred [apply] thunk that writes the [loop_info] decision
    fields.  {!run} evaluates the nests as pool tasks and applies the
    thunks on the submitting domain in program order, so the IR and the
    outcome counters evolve in the same order at every job count; after
    a fault the merge re-raises at the first failed nest, and every
    later decision, already computed, is discarded. *)
let analyze_nest ~(mode : mode) (u : Punit.t) (outer_env : Range.env)
    (nest : Loops.nest) : loop_report * (unit -> unit) =
  let target = Loops.innermost nest in
  let enclosing = List.filter (fun l -> l != target) nest.loops in
  let d = target.dloop in
  let body = d.body in
  let info = d.info in
  let decide ?(commit = fun () -> ()) ~parallel ~speculative reason =
    let report =
      { loop_index = d.index; loop_sid = target.stmt.sid; parallel;
        speculative; reason }
    in
    let apply () =
      commit ();
      info.par <- parallel;
      info.speculative <- speculative;
      info.par_reason <- reason
    in
    (report, apply)
  in
  (* 0. structural disqualifiers *)
  if Loops.has_disqualifying_control body then
    decide ~parallel:false ~speculative:false "unstructured control flow or I/O"
  else if Access.calls_in body ~is_intrinsic:Access.is_intrinsic <> [] then
    decide ~parallel:false ~speculative:false "contains procedure calls"
  else begin
    (* 1. reductions *)
    let reductions = Reduction.find u.pu_symtab body in
    let reductions =
      match mode with
      | Polaris -> reductions
      | Baseline ->
        (* classic compilers: scalar single-address sums/products only *)
        List.filter
          (fun (f : Reduction.found) ->
            f.red.red_kind = Single_address
            && not (Symtab.is_array u.pu_symtab f.red.red_var))
          reductions
    in
    (* the paper (§3.2): the data-dependence pass removes the flags of
       reduction statements it can prove free of loop-carried
       dependences — e.g. element-wise updates A(I) = A(I) + x, which
       need no merge at all *)
    let inner_nests = Loops.nests_of_block body in
    let env0 = Loops.nest_env ~outer_env nest in
    let env0 =
      List.fold_left
        (fun env n -> Loops.nest_env ~outer_env:env n)
        env0 inner_nests
    in
    let inner0 = List.map Loops.innermost inner_nests in
    let all_accesses = Access.of_block body in
    let body_writes0 =
      List.filter_map
        (fun (a : Access.t) ->
          if a.kind = Access.Write then Some a.array else None)
        all_accesses
      |> List.sort_uniq String.compare
    in
    let method0 =
      match mode with
      | Polaris -> Dep.Driver.Range_symbolic
      | Baseline -> Dep.Driver.Banerjee_gcd
    in
    let reductions =
      List.filter
        (fun (f : Reduction.found) ->
          if not (Symtab.is_array u.pu_symtab f.red.red_var) then true
          else
            let accs =
              List.filter
                (fun (a : Access.t) -> String.equal a.array f.red.red_var)
                all_accesses
            in
            match
              Dep.Driver.array_deps ~method_:method0 ~symtab:u.pu_symtab
                ~env:env0 ~enclosing ~target ~inner:inner0
                ~body_writes:body_writes0 ~accesses:accs ()
            with
            | Dep.Driver.Parallel _ -> false (* flag removed: independent *)
            | Dep.Driver.Dependent _ -> true)
        reductions
    in
    let reduction_vars = List.map (fun (f : Reduction.found) -> f.red.red_var) reductions in
    let reduction_sids = List.concat_map (fun (f : Reduction.found) -> f.stmt_ids) reductions in
    (* 2. scalars *)
    let classes = Defuse.classify body in
    let exposed =
      Defuse.of_class Defuse.Exposed classes
      |> List.filter (fun v ->
             (not (List.mem v reduction_vars)) && not (Symtab.is_array u.pu_symtab v))
    in
    let exposed =
      (* arrays are dealt with below; Defuse only tracks scalars, but be
         safe against name confusion *)
      exposed
    in
    if exposed <> [] then
      decide ~parallel:false ~speculative:false
        (Fmt.str "carried scalar dependence on %s" (String.concat "," exposed))
    else begin
      let private_scalars =
        Defuse.of_class Defuse.Private classes
        |> List.filter (fun v -> not (List.mem v reduction_vars))
      in
      (* 3. arrays: per-array dependence test, privatization fallback.
         The environment, inner-loop list, accesses, written set and
         method are exactly the ones already derived in step 1 — reuse
         them instead of re-deriving. *)
      let env = env0 in
      let inner = inner0 in
      let accesses =
        List.filter
          (fun (a : Access.t) ->
            not
              (List.mem a.sid reduction_sids
              && List.mem a.array reduction_vars))
          all_accesses
      in
      let arrays =
        Access.by_array accesses
        |> List.filter (fun (name, accs) ->
               Symtab.is_array u.pu_symtab name
               && List.exists (fun (a : Access.t) -> a.kind = Access.Write) accs)
      in
      (* arrays written anywhere in the body, including by reduction
         statements: a subscript routed through any of them is
         unanalyzable *)
      let body_writes = body_writes0 in
      let method_ = method0 in
      (* the reaching definitions the privatizer's demand proofs
         substitute: one walk of the unit, taken on the first array
         that needs it and shared by the rest of this loop's arrays *)
      let defs = lazy (Demand.defs_at u ~target:target.stmt.sid) in
      let privates = ref private_scalars in
      let lastprivates = ref [] in
      let failed = ref None in
      let speculative = ref false in
      let proof = ref [] in
      List.iter
        (fun (name, accs) ->
          if !failed = None then
            match
              Dep.Driver.array_deps ~method_ ~symtab:u.pu_symtab ~env ~enclosing
                ~target ~inner ~body_writes ~accesses:accs ()
            with
            | Dep.Driver.Parallel how ->
              proof := Fmt.str "%s:%s" name how :: !proof
            | Dep.Driver.Dependent why -> (
              (* a subscript routed through any array element (written
                 or not) makes the loop an LRPD candidate (paper 3.5) *)
              let has_array_subscript =
                List.exists
                  (fun (a : Access.t) ->
                    List.exists
                      (fun p ->
                        List.exists
                          (function
                            | Symbolic.Atom.Aopaque e ->
                              Fir.Expr.exists
                                (function Ast.Ref _ -> true | _ -> false)
                                e
                              || (match e with Ast.Ref _ -> true | _ -> false)
                            | Symbolic.Atom.Avar _ -> false)
                          (Symbolic.Poly.atoms p))
                      a.subs)
                  accs
              in
              let is_subscripted =
                match mode with
                | Polaris ->
                  has_array_subscript
                  || (String.length why >= 11
                     && String.sub why 0 11 = "subscripted")
                | Baseline -> false
              in
              match mode with
              | Baseline ->
                failed := Some (Fmt.str "%s: %s" name why)
              | Polaris -> (
                match
                  Privatize.analyze ~unit_:u ~outer_env
                    ~defs:(Lazy.force defs) ~d ~array:name
                with
                | Ok ()
                  when Privatize.needs_copy_out ~unit_:u ~d ~array:name
                       && Stmt.exists
                            (fun (s : stmt) ->
                              match s.kind with
                              | Assign (Ref (a, subs), _) ->
                                String.equal a name
                                && List.exists (Expr.mentions d.index) subs
                              | _ -> false)
                            body ->
                  (* live after the loop with an iteration-dependent
                     write set: the last iteration's copy-out would miss
                     elements written by earlier iterations *)
                  failed :=
                    Some
                      (Fmt.str
                         "%s: %s; not privatizable: live-out with varying write set"
                         name why)
                | Ok () ->
                  privates := name :: !privates;
                  if Privatize.needs_copy_out ~unit_:u ~d ~array:name then
                    lastprivates := name :: !lastprivates;
                  proof := Fmt.str "%s:privatized" name :: !proof
                | Error perr ->
                  if is_subscripted then speculative := true;
                  failed :=
                    Some (Fmt.str "%s: %s; not privatizable: %s" name why perr))))
        arrays;
      match !failed with
      | Some why -> decide ~parallel:false ~speculative:!speculative why
      | None ->
        (* lastprivate scalars *)
        let lp_scalars =
          List.filter (fun v -> live_after u d v) private_scalars
        in
        let privates = List.sort_uniq String.compare !privates in
        let lastprivates =
          List.sort_uniq String.compare (lp_scalars @ !lastprivates)
        in
        let commit () =
          info.privates <- privates;
          info.lastprivates <- lastprivates;
          info.reductions <-
            List.map (fun (f : Reduction.found) -> f.red) reductions
        in
        decide ~commit ~parallel:true ~speculative:false
          (String.concat "; "
             (List.rev
                ((if reductions = [] then [] else [ "reductions solved" ])
                @ !proof
                @ [ "scalars private" ])))
    end
  end

(** Decide every loop of [p] (outermost first, in program order) and
    mark its [loop_info]; returns each unit's per-loop reports.

    Each nest is one {!Util.Pool.map} task ([List.map] at [-j 1]) with
    its side effects deferred: the analysis reads the IR, writes only
    memo tables and its own counter tally ({!Dep.Driver.collecting}),
    and returns its report with an [apply] thunk.  The submitting
    domain then commits in program order: each tally folds into the
    global counters, each Ok report's [apply] marks its loop, and the
    first Error re-raises after its tally is applied.  Counters,
    decisions and the fault point are therefore the same at every job
    count.

    Deliberately no [Program.touch]: this pass writes only the
    [loop_info] decision fields (par/privates/reductions/...), never
    statement bodies or symbol tables.  Those fields start in the safe
    serial default, so a fault mid-pass can at worst leave later loops
    undecided (= serial) — nothing for a copy-on-write guard to roll
    back, and nothing {!Fir.Consistency} checks. *)
let run ~mode (p : Program.t) : (string * loop_report list) list =
  let units = Program.units p in
  (* each unit's loop envs are derived here, on the submitting domain,
     and each task carries the env inside its nest's innermost loop.  A
     walk that raises fails the unit's first nest, before any of the
     unit's nests commits. *)
  let tasks =
    List.concat_map
      (fun u ->
        match Loops.nests_of_unit u with
        | [] -> []
        | nests ->
          let envs =
            match Range_prop.loop_envs u with
            | envs -> Ok envs
            | exception e -> Error (e, Printexc.get_raw_backtrace ())
          in
          List.map
            (fun (n : Loops.nest) ->
              (u, Result.map (List.assoc (Loops.innermost n).stmt.sid) envs, n))
            nests)
      units
  in
  let outcomes =
    (* weight: nest depth + statements in the innermost body — a cheap
       proxy for access-pair count, so the batcher packs many small
       nests per chunk but never lumps two big ones together *)
    Util.Pool.map
      ~weight:(fun ((_ : Punit.t), _, (nest : Loops.nest)) ->
        List.length nest.loops + Stmt.fold (fun n _ -> n + 1) 0 nest.body)
      (fun ((u : Punit.t), env, nest) ->
        Dep.Driver.collecting (fun () ->
            match env with
            | Ok env -> analyze_nest ~mode u env nest
            | Error (e, bt) -> Printexc.raise_with_backtrace e bt))
      tasks
  in
  let reports =
    List.map2
      (fun ((u : Punit.t), _, _) (outcome, tally) ->
        Dep.Driver.apply_tally tally;
        match outcome with
        | Ok (report, apply) ->
          apply ();
          (u, report)
        | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
      tasks outcomes
  in
  List.map
    (fun u ->
      ( u.Punit.pu_name,
        List.filter_map
          (fun (u', r) -> if u' == u then Some r else None)
          reports ))
    units
