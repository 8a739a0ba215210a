(** Translation-validation oracle: differential execution.

    Polaris's credibility rested on pervasive consistency assertions
    (paper §2); the analogue for a reproduction that transforms programs
    is an end-to-end check that the transformed program computes the
    same answers as the original.  This module runs an original /
    transformed program pair through the reference tree-walker
    {!Machine.Treewalk} (so the lowered {!Machine.Interp} every other
    run uses is checked against an independent implementation) on
    deterministic initial stores (zero-filled, plus optional
    splitmix64-seeded fills) and compares the observable final states:

    - PRINT output must match exactly (execution is sequential under
      every timing model, so even float output is deterministic);
    - integer and logical storage must match bit-for-bit;
    - float storage must match within a configurable ULP tolerance
      (headroom for reduction-reordering transforms).

    The transformed program is executed under serial timing and under
    parallel (DOALL-honouring) timing at each requested machine size, so
    the annotation-driven timing paths are exercised as well. *)

open Machine

(* ------------------------------------------------------------------ *)
(* Float and value comparison                                          *)

(** Two floats compare equal when they are within [ulp_tol] units in
    the last place {e or} within [rel_tol] relative error.  The modeled
    lane keeps [rel_tol] at 0 (pure ULP); only the real-execution lane
    uses the relative band — see {!real_cmp}. *)
type cmp = { ulp_tol : int; rel_tol : float }

let default_cmp = { ulp_tol = 2; rel_tol = 0.0 }

(** Comparator for the {e real-execution} lane ({!execute_real}).
    Parallel float reductions accumulate per-domain partials and merge
    them in domain order — a deterministic but different association
    from the serial fold, so the rounding drifts by a few ULP per
    thousand same-sign terms (observed ≤ 8 ULP at p ≤ 8 over 1000
    terms; see DESIGN.md §10).  64 ULP gives an order of magnitude of
    headroom while still pinning ~14 of the 16 significant digits.

    The relative band exists for iterative codes that feed a reduction
    result back into the next timestep's state (HYDRO2D: EK drives the
    velocity update, which drives the next EK).  A numerically unstable
    stencil amplifies the ULP-scale reassociation difference
    multiplicatively, so no fixed ULP bound survives — the measured
    drift over the full suite is ≤ 1.5e-11 relative at p ≤ 8, and
    1e-9 gives two orders of magnitude of headroom while still
    catching every real executor bug class: a lost per-domain partial
    or a wrong-element write perturbs values by ≥ 1e-4 relative here.
    Integers, logicals and PRINT output remain exact — only float
    {e memory} gets the slack. *)
let real_cmp = { ulp_tol = 64; rel_tol = 1e-9 }

(** Distance between two floats in units-in-the-last-place, using the
    monotone integer encoding of IEEE-754 doubles.  NaN/NaN compare as
    0; NaN against a number is [max_int]. *)
let ulp_diff a b =
  if a = b then 0 (* also identifies +0.0 with -0.0 *)
  else if Float.is_nan a && Float.is_nan b then 0
  else if Float.is_nan a || Float.is_nan b then max_int
  else
    let key x =
      let bits = Int64.bits_of_float x in
      if Int64.compare bits 0L >= 0 then bits else Int64.sub Int64.min_int bits
    in
    let d = Int64.abs (Int64.sub (key a) (key b)) in
    if Int64.compare d (Int64.of_int max_int) > 0 || Int64.compare d 0L < 0
    then max_int
    else Int64.to_int d

let float_close (c : cmp) x y =
  ulp_diff x y <= c.ulp_tol
  || c.rel_tol > 0.0
     && abs_float (x -. y)
        <= c.rel_tol *. Float.max (abs_float x) (abs_float y)

let value_close (c : cmp) (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Value.Int x, Value.Int y -> x = y
  | Value.Bool x, Value.Bool y -> x = y
  | Value.Str x, Value.Str y -> String.equal x y
  | Value.Real x, Value.Real y -> float_close c x y
  | _ ->
    (* mixed numeric kinds should not arise (same variable, same type);
       fall back to exact numeric equality *)
    (try Value.to_float a = Value.to_float b with Value.Type_error _ -> false)

let boxed (d : Storage.data) i =
  match d with
  | Storage.Farr a -> Value.Real a.(i)
  | Storage.Iarr a -> Value.Int a.(i)
  | Storage.Barr a -> Value.Bool a.(i)

(* [f i] for each index [i] at which [a] and [b], of one length, differ:
   integers and logicals bit-for-bit, floats within [c], and arrays of
   two classes element by element as {!value_close} compares them *)
let iter_diffs (c : cmp) (a : Storage.data) (b : Storage.data) f =
  match (a, b) with
  | Storage.Iarr x, Storage.Iarr y ->
    Array.iteri (fun i (v : int) -> if v <> y.(i) then f i) x
  | Storage.Barr x, Storage.Barr y ->
    Array.iteri (fun i (v : bool) -> if v <> y.(i) then f i) x
  | Storage.Farr x, Storage.Farr y ->
    Array.iteri (fun i v -> if not (float_close c v y.(i)) then f i) x
  | _ ->
    for i = 0 to Storage.size_of_data a - 1 do
      if not (value_close c (boxed a i) (boxed b i)) then f i
    done

(** Storage-level comparator (used by the speculative checkpoint test):
    integers and logicals bit-for-bit, floats within the tolerance. *)
let data_close ?(cmp = default_cmp) (a : Storage.data) (b : Storage.data) =
  match (a, b) with
  | Storage.Iarr _, Storage.Iarr _ | Storage.Barr _, Storage.Barr _
  | Storage.Farr _, Storage.Farr _ ->
    Storage.size_of_data a = Storage.size_of_data b
    && (try iter_diffs cmp a b (fun _ -> raise Exit); true with Exit -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

type outcome =
  | Finished of Interp.capture
  | Fault of string  (** runtime error; two faulting runs compare equal *)

let execute ?seed ?(parallel = false) ?(procs = 8) (p : Fir.Program.t) :
    outcome =
  let cfg = Interp.default_config ~parallel ~procs ?seed () in
  try Finished (Treewalk.run_full ~cfg p) with
  | Interp.Runtime_error m -> Fault ("runtime error: " ^ m)
  | Interp.Fuel_exhausted m -> Fault ("fuel exhausted " ^ m)
  | Storage.Fault m -> Fault ("storage fault: " ^ m)
  | Value.Type_error m -> Fault ("type error: " ^ m)
  | Division_by_zero -> Fault "division by zero"

(** Like {!execute}, but annotated loops actually run on [procs] OCaml
    domains via {!Machine.Parexec} (speculative loops under the LRPD
    test on {!Machine.Shadow} arrays).  Also returns the runtime stats
    so callers can assert that regions really forked. *)
let execute_real ?seed ?(procs = 8) (p : Fir.Program.t) :
    outcome * Parexec.stats =
  let cfg = Interp.default_config ~parallel:false ~procs ?seed () in
  try
    let capture, stats = Parexec.run_full ~cfg ~procs p in
    (Finished capture, stats)
  with
  | Interp.Runtime_error m -> (Fault ("runtime error: " ^ m), Parexec.fresh_stats ())
  | Interp.Fuel_exhausted m -> (Fault ("fuel exhausted " ^ m), Parexec.fresh_stats ())
  | Storage.Fault m -> (Fault ("storage fault: " ^ m), Parexec.fresh_stats ())
  | Value.Type_error m -> (Fault ("type error: " ^ m), Parexec.fresh_stats ())
  | Division_by_zero -> (Fault "division by zero", Parexec.fresh_stats ())

(* ------------------------------------------------------------------ *)
(* Capture comparison                                                  *)

type divergence = {
  at : string;       (** location: "output", "scalar X", "array A[17]" *)
  expected : string;
  got : string;
}

let pp_divergence ppf (d : divergence) =
  Fmt.pf ppf "%s: expected %s, got %s" d.at d.expected d.got

(* compare only names both sides bind: transformation passes may remove
   dead locals (deadcode) or add remapped ones (inlining); locals are
   not observable, so the common names are the comparable store *)
let common_names a b =
  List.filter_map
    (fun (name, x) ->
      match List.assoc_opt name b with
      | Some y -> Some (name, x, y)
      | None -> None)
    a

let compare_captures (c : cmp) (ref_ : Interp.capture) (got : Interp.capture) :
    divergence list =
  let divs = ref [] in
  let add at expected got = divs := { at; expected; got } :: !divs in
  (* PRINT output: exact, line by line *)
  let ro = ref_.cap_result.output and go = got.cap_result.output in
  if List.length ro <> List.length go then
    add "output" (Fmt.str "%d lines" (List.length ro))
      (Fmt.str "%d lines" (List.length go))
  else
    List.iteri
      (fun i (a, b) ->
        if not (String.equal a b) then
          add (Fmt.str "output line %d" (i + 1)) a b)
      (List.combine ro go);
  (* main-frame scalars *)
  List.iter
    (fun (name, x, y) ->
      if not (value_close c x y) then
        add ("scalar " ^ name) (Value.to_string x) (Value.to_string y))
    (common_names ref_.cap_result.final got.cap_result.final);
  (* main-frame arrays and COMMON members *)
  let compare_arrays kind ref_arrays got_arrays =
    List.iter
      (fun (name, x, y) ->
        let nx = Storage.size_of_data x and ny = Storage.size_of_data y in
        if nx <> ny then
          add (Fmt.str "%s %s" kind name) (Fmt.str "%d elements" nx)
            (Fmt.str "%d elements" ny)
        else
          iter_diffs c x y (fun i ->
              add
                (Fmt.str "%s %s[%d]" kind name i)
                (Value.to_string (boxed x i))
                (Value.to_string (boxed y i))))
      (common_names ref_arrays got_arrays)
  in
  compare_arrays "array" ref_.cap_arrays got.cap_arrays;
  compare_arrays "common" ref_.cap_commons got.cap_commons;
  List.rev !divs

let compare_outcomes (c : cmp) (ref_ : outcome) (got : outcome) :
    divergence list =
  match (ref_, got) with
  | Finished a, Finished b -> compare_captures c a b
  | Fault _, Fault _ ->
    (* both executions fault: a transformation may legitimately move the
       fault point, so messages are not compared *)
    []
  | Fault m, Finished _ ->
    (* name the faulting side: "the original ran out of fuel" reads very
       differently from "the transformed program ran out of fuel" *)
    [ { at = "termination";
        expected = "original program faulted: " ^ m;
        got = "transformed program completed normally" } ]
  | Finished _, Fault m ->
    [ { at = "termination";
        expected = "original program completed normally";
        got = "transformed program faulted: " ^ m } ]

(* ------------------------------------------------------------------ *)
(* The differential oracle                                             *)

type check = {
  context : string;  (** e.g. "seed=7 parallel p=4" *)
  divergences : divergence list;  (** non-empty *)
}

type report = {
  checks : int;             (** differential runs performed *)
  failures : check list;
}

let equivalent (r : report) = r.failures = []

let pp_report ppf (r : report) =
  if equivalent r then Fmt.pf ppf "equivalent (%d checks)" r.checks
  else
    Fmt.pf ppf "DIVERGED in %d of %d checks:@,%a" (List.length r.failures)
      r.checks
      (Fmt.list ~sep:Fmt.cut (fun ppf (ck : check) ->
           Fmt.pf ppf "  [%s] %a" ck.context
             (Fmt.list ~sep:(Fmt.any "; ") pp_divergence)
             (List.filteri (fun i _ -> i < 3) ck.divergences)))
      r.failures

(** Differentially execute [transformed] against [original].

    For the zero-filled store and each seeded store, the original is run
    serially (the reference) and the transformed program is run serially
    and with parallel timing at each machine size of [procs_list]. *)
let differential ?(cmp = default_cmp) ?(procs_list = [ 1; 2; 4; 8 ])
    ?(seeds = []) ~(original : Fir.Program.t)
    ~(transformed : Fir.Program.t) () : report =
  let checks = ref 0 in
  let failures = ref [] in
  let stores = None :: List.map Option.some seeds in
  (* Interpretation mutates IR-adjacent state: {!Fir.Symtab.lookup}
     materializes implicitly-declared symbols on first touch.  So each
     run of the {e transformed} program gets its own deep copy
     (annotations travel with the copy), and the original's reference
     run is the sole task touching [original].  The runs are one
     {!Util.Pool.map} batch ([List.map] at [-j 1]); results are
     compared in list order, so reports — including the order of
     [failures] — are identical at every job count. *)
  List.iter
    (fun seed ->
      let seed_ctx =
        match seed with None -> "zero-init" | Some s -> Fmt.str "seed=%d" s
      in
      let check reference context run =
        incr checks;
        let divergences = compare_outcomes cmp reference run in
        if divergences <> [] then
          failures := { context; divergences } :: !failures
      in
      let specs = `Ref :: `Serial :: List.map (fun p -> `Par p) procs_list in
      let outcomes =
        Util.Pool.map
          (fun spec ->
            match spec with
            | `Ref -> execute ?seed original
            | `Serial -> execute ?seed (Fir.Program.copy transformed)
            | `Par procs ->
              execute ?seed ~parallel:true ~procs (Fir.Program.copy transformed))
          specs
      in
      match outcomes with
      | reference :: serial :: pars ->
        check reference (seed_ctx ^ " serial") serial;
        List.iter2
          (fun procs run ->
            check reference (Fmt.str "%s parallel p=%d" seed_ctx procs) run)
          procs_list pars
      | _ -> assert false)
    stores;
  { checks = !checks; failures = List.rev !failures }

(** Differentially execute the {e real} parallel executor against the
    serial interpreter on the same program: for the zero-filled store
    and each seeded store, the serial run is the reference and
    {!execute_real} must reproduce its output and final memory at every
    machine size in [procs_list].  This is the runtime analogue of
    {!differential} (which checks the {e transformation}); here the
    program is fixed and the execution strategy varies. *)
let differential_real ?(cmp = real_cmp) ?(procs_list = [ 1; 2; 4; 8 ])
    ?(seeds = []) (program : Fir.Program.t) () : report =
  let checks = ref 0 in
  let failures = ref [] in
  let stores = None :: List.map Option.some seeds in
  List.iter
    (fun seed ->
      let seed_ctx =
        match seed with None -> "zero-init" | Some s -> Fmt.str "seed=%d" s
      in
      let reference = execute ?seed program in
      List.iter
        (fun procs ->
          incr checks;
          let run, _stats = execute_real ?seed ~procs program in
          let divergences = compare_outcomes cmp reference run in
          if divergences <> [] then
            failures :=
              { context = Fmt.str "%s real p=%d" seed_ctx procs; divergences }
              :: !failures)
        procs_list)
    stores;
  { checks = !checks; failures = List.rev !failures }
