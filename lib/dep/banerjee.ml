(** Banerjee's inequalities with direction vectors.

    For a direction vector over the loop nest, bound
    [h = f(i) - g(i')] subject to the loop bounds and the per-loop
    direction constraint; a dependence with that direction is possible
    only if the bounds straddle zero.  Requires affine subscripts with
    constant coefficients and constant loop bounds (paper §3.3: exactly
    the regime where "current compilers" operate; the range test exists
    for everything else).

    Per-loop min/max contributions are computed exactly by evaluating
    [A*x - B*y] at the vertices of the feasible lattice polytope for the
    direction, rather than by the textbook positive/negative-part
    formulas — equivalent results, no formula transcription risk. *)

type direction = Lt | Eq | Gt | Star

type verdict = Independent | Maybe_dependent

(* vertices of {(x,y) | 0 <= x,y <= d, constraint}; empty if infeasible *)
let vertices (dir : direction) (d : int) : (int * int) list =
  match dir with
  | Star -> if d < 0 then [] else [ (0, 0); (0, d); (d, 0); (d, d) ]
  | Eq -> if d < 0 then [] else [ (0, 0); (d, d) ]
  | Lt -> if d < 1 then [] else [ (0, 1); (0, d); (d - 1, d) ]
  | Gt -> if d < 1 then [] else [ (1, 0); (d, 0); (d, d - 1) ]

(** Bound one loop's contribution [A*i - B*i'] with [i, i' in [lo,hi]]
    and the direction constraint; [None] if the direction is infeasible
    for these bounds. *)
let loop_contrib ~a ~b ~lo ~hi (dir : direction) : (int * int) option =
  let d = hi - lo in
  match vertices dir d with
  | [] -> None
  | vs ->
    let base = (a - b) * lo in
    let values = List.map (fun (x, y) -> base + (a * x) - (b * y)) vs in
    Some (List.fold_left min max_int values, List.fold_left max min_int values)

(** [test ~loops ~dirs f g]: is a dependence between accesses with
    subscripts [f] (source) and [g] (sink) possible with direction
    vector [dirs] (one entry per loop of [loops], outermost first)?
    Falls back to [Maybe_dependent] whenever the affine/constant-bounds
    requirements fail. *)
let test ?(budget = Util.Budget.unlimited ())
    ~(loops : Analysis.Loops.loop list) ~(dirs : direction list)
    (f : Symbolic.Poly.t list) (g : Symbolic.Poly.t list) : verdict =
  let indices =
    List.map
      (fun (l : Analysis.Loops.loop) ->
        match l.index with Symbolic.Atom.Avar v -> v | _ -> "?")
      loops
  in
  if List.length f <> List.length g then Maybe_dependent
  else if
    (* each dimension costs one budget step per loop of the nest;
       an exhausted budget degrades to "dependence possible" (safe) *)
    not (Util.Budget.spend budget (List.length f * max 1 (List.length loops)))
  then Maybe_dependent
  else
    let dim_independent (pf, pg) =
      match (Linear.of_poly indices pf, Linear.of_poly indices pg) with
      | Some af, Some ag -> (
        let exception Fail in
        try
          let lo_hi =
            List.map2
              (fun (l : Analysis.Loops.loop) dir ->
                match Linear.const_bounds l with
                | Some (lo, hi) ->
                  let name =
                    match l.index with Symbolic.Atom.Avar v -> v | _ -> "?"
                  in
                  let a = Linear.coeff af name and b = Linear.coeff ag name in
                  (match loop_contrib ~a ~b ~lo ~hi dir with
                  | Some mm -> mm
                  | None -> raise_notrace Exit)
                | None -> raise Fail)
              loops dirs
          in
          let lb = List.fold_left (fun acc (mn, _) -> acc + mn) (af.const - ag.const) lo_hi in
          let ub = List.fold_left (fun acc (_, mx) -> acc + mx) (af.const - ag.const) lo_hi in
          (* dependence needs f(i) - g(i') = 0 *)
          lb > 0 || ub < 0
        with
        | Fail -> false
        | Exit -> true (* direction infeasible: no dependence *))
      | _ -> false
    in
    if List.exists dim_independent (List.combine f g) then Independent
    else Maybe_dependent

(** Does loop number [k] (0-based, outermost first) carry a dependence
    between [f] and [g]?  Tests the direction vectors with [=] outside
    position [k], [<] (resp. [>]) at [k] and [*] inside; the loop is
    free of carried dependences for this pair if both are
    [Independent]. *)
let carries ?budget ~(loops : Analysis.Loops.loop list) ~k f g : verdict =
  let n = List.length loops in
  let dirs_with at =
    List.init n (fun i -> if i < k then Eq else if i = k then at else Star)
  in
  match
    ( test ?budget ~loops ~dirs:(dirs_with Lt) f g,
      test ?budget ~loops ~dirs:(dirs_with Gt) f g )
  with
  | Independent, Independent -> Independent
  | _ -> Maybe_dependent
