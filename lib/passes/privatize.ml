(** Array privatization (paper §3.4).

    An array is privatizable for a loop when every read of it in an
    iteration is dominated by a write of the same iteration covering the
    read region.  The analysis walks the loop body once, maintaining

    - {b exact writes}: dominating writes with their subscript
      polynomials, for same-subscript coverage (the [A(J)] write/read
      pair inside BDNA's first inner loop);
    - {b dense regions}: completed inner loops contribute per-dimension
      [lo..hi] regions when the written set is provably contiguous
      (stride-1 coverage with adjacency proved symbolically);
    - {b a forward scalar substitution} so that [M = IND(L); ... A(M)]
      is analyzed as [A(IND(L))];
    - {b monotonic index-array facts} (paper Fig. 5): a fill loop of the
      shape [IF (...) THEN P = P + 1; IND(P) = val ENDIF] proves that
      positions [c0+1..P] of [IND] hold values in the range of [val],
      so a later read [A(IND(L))] with [L] within [1..P] reads inside
      that value range.

    Coverage proofs go through {!Symbolic.Compare} and fall back to
    demand-driven backward substitution ({!Demand}), which is how the
    [MP >= M*P] obligation of the paper's Fig. 4 is discharged. *)

open Fir
open Ast
open Symbolic

type region = { rdims : (Poly.t * Poly.t) list }

type mono_fact = {
  ind_array : string;
  counter : string;            (** the monotonically increasing P *)
  pos_lo : Poly.t;             (** first filled position, c0 + 1 *)
  val_lo : Poly.t;
  val_hi : Poly.t;
  counter_lo : Poly.t;         (** c0: final P is at least the initial value *)
  counter_hi : Poly.t;         (** c0 + fill-loop trip count: at most one
                                   increment per iteration *)
  fill_sid : int;              (** DO statement of the filling loop *)
  mutable active : bool;
}

type state = {
  array : string;
  unit_ : Punit.t;
  ddefs : Demand.defs;               (** reaching defs at the loop, for demand proofs *)
  mutable defs : region list;
  mutable exacts : Poly.t list list;
  mutable subst : (string * expr) list;
  mutable facts : mono_fact list;
  mutable failure : string option;
}

(* ------------------------------------------------------------------ *)
(* Forward scalar substitution                                         *)

let subst_kill (sub : (string * expr) list) names =
  List.filter
    (fun (v, e) ->
      (not (List.mem v names))
      && not (List.exists (fun n -> Expr.mentions n e) names))
    sub

let subst_apply (sub : (string * expr) list) (e : expr) =
  if sub = [] then e
  else
    Expr.map
      (function
        | Var v as orig -> (
          match List.assoc_opt v sub with Some by -> by | None -> orig)
        | x -> x)
      e

(* ------------------------------------------------------------------ *)
(* Monotonic index-array detection                                     *)

(* [P = P + 1] ? *)
let is_incr_one p (s : stmt) =
  match s.kind with
  | Assign (Var v, rhs) when String.equal v p ->
    Poly.equal (Poly.of_expr rhs) (Poly.add (Poly.var p) Poly.one)
  | _ -> false

(* find the adjacent pair [P = P+1; IND(P) = val] in a block *)
let rec find_fill_pair (b : block) : (string * string * expr) option =
  match b with
  | s1 :: s2 :: rest -> (
    match (s1.kind, s2.kind) with
    | Assign (Var p, _), Assign (Ref (ind, [ Var p' ]), v)
      when String.equal p p' && is_incr_one p s1 ->
      Some (p, ind, v)
    | _ -> find_fill_pair (s2 :: rest))
  | _ -> None

(* detect fill loops anywhere in [body]; [env0] provides outer facts *)
let detect_facts (symtab : Symtab.t) (env0 : Range.env) (body : block) :
    mono_fact list =
  let facts = ref [] in
  let rec go env (b : block) (last_const : (string * int) list) =
    ignore
      (List.fold_left
         (fun last_const (s : stmt) ->
           (match s.kind with
           | Do d -> (
             let denv = Range_prop.enter_loop env d in
             let pair =
               match find_fill_pair d.body with
               | Some _ as p -> p
               | None -> (
                 (* conditional fill: IF (...) THEN pair ENDIF *)
                 match
                   List.find_map
                     (fun (s : stmt) ->
                       match s.kind with
                       | If (_, t, []) -> find_fill_pair t
                       | _ -> None)
                     d.body
                 with
                 | Some _ as p -> p
                 | None -> None)
             in
             (match pair with
             | Some (p, ind, value) when List.mem_assoc p last_const ->
               let c0 = List.assoc p last_const in
               let vp = Poly.of_expr value in
               let over = [ Atom.var d.index ] in
               (match
                  ( Compare.eliminate denv `Min ~over vp,
                    Compare.eliminate denv `Max ~over vp )
                with
               | Ok val_lo, Ok val_hi
                 when (not (Poly.mentions_var d.index val_lo))
                      && not (Poly.mentions_var d.index val_hi)
                      && (match d.step with
                         | None -> true
                         | Some e -> Expr.int_val e = Some 1) ->
                 let trips =
                   Poly.add
                     (Poly.sub (Poly.of_expr d.limit) (Poly.of_expr d.init))
                     Poly.one
                 in
                 facts :=
                   { ind_array = ind; counter = p;
                     pos_lo = Poly.of_int (c0 + 1); val_lo; val_hi;
                     counter_lo = Poly.of_int c0;
                     counter_hi = Poly.add (Poly.of_int c0) trips;
                     fill_sid = s.sid; active = false }
                   :: !facts
               | _ -> ())
             | _ -> ());
             go denv d.body [])
           | If (_, t, e) ->
             go env t [];
             go env e []
           | While (_, b') -> go env b' []
           | _ -> ());
           match s.kind with
           | Assign (Var v, rhs) -> (
             match Expr.int_val rhs with
             | Some c -> (v, c) :: List.remove_assoc v last_const
             | None -> List.remove_assoc v last_const)
           | _ -> last_const)
         last_const b)
  in
  ignore symtab;
  go env0 body [];
  !facts

(* ------------------------------------------------------------------ *)
(* Regions                                                             *)

(* collapse a region over loop index [idx]: exactly one dimension may
   vary, stride must provably tile the interval *)
let collapse_region env (idx : string) (r : region) : region option =
  let mentions p = Poly.mentions_var idx p in
  let varying = List.filter (fun (lo, hi) -> mentions lo || mentions hi) r.rdims in
  match varying with
  | [] -> Some r
  | [ _ ] ->
    let collapse_dim (lo, hi) =
      if not (mentions lo || mentions hi) then Some (lo, hi)
      else begin
        (* opaque capture makes substitution of idx+1 unsound *)
        let opaque_capture p =
          List.exists
            (function
              | Atom.Aopaque _ as a -> Atom.mentions idx a
              | Atom.Avar _ -> false)
            (Poly.atoms p)
        in
        if opaque_capture lo || opaque_capture hi then None
        else
          let over = [ Atom.var idx ] in
          match
            (Compare.eliminate env `Min ~over lo, Compare.eliminate env `Max ~over hi)
          with
          | Ok lo', Ok hi' ->
            let next p =
              Poly.subst (Atom.var idx) (Poly.add (Poly.var idx) Poly.one) p
            in
            (* contiguity: each iteration non-empty and adjacent to the
               next: lo(i) <= hi(i), lo(i+1) <= hi(i) + 1 *)
            if
              Compare.prove_le env lo hi
              && Compare.prove_le env (next lo) (Poly.add hi Poly.one)
            then Some (lo', hi')
            else None
          | _ -> None
      end
    in
    let dims' = List.map collapse_dim r.rdims in
    if List.for_all Option.is_some dims' then
      Some { rdims = List.map Option.get dims' }
    else None
  | _ -> None

(* union-merge two regions: all dimensions structurally equal except at
   most one, where the intervals are provably contiguous *)
let try_merge env (a : region) (b : region) : region option =
  if List.length a.rdims <> List.length b.rdims then None
  else begin
    let exception No in
    try
      let merged_one = ref false in
      let dims =
        List.map2
          (fun (alo, ahi) (blo, bhi) ->
            if Poly.equal alo blo && Poly.equal ahi bhi then (alo, ahi)
            else if !merged_one then raise No
            else begin
              merged_one := true;
              (* b extends a upward: [alo,ahi] u [blo,bhi] = [alo,bhi] *)
              if
                Compare.prove_le env blo (Poly.add ahi Poly.one)
                && Compare.prove_le env alo blo
                && Compare.prove_le env ahi bhi
              then (alo, bhi)
              else if
                (* b extends a downward *)
                Compare.prove_le env alo (Poly.add bhi Poly.one)
                && Compare.prove_le env blo alo
                && Compare.prove_le env bhi ahi
              then (blo, ahi)
              else raise No
            end)
          a.rdims b.rdims
      in
      Some { rdims = dims }
    with No -> None
  end

(* "written-so-far" region of a write inside loop [d]: at iteration J,
   everything from the first iteration's start up to this iteration's
   start minus one has been written by previous iterations, provided
   the per-iteration intervals are non-empty, contiguous, and the start
   is monotonically non-decreasing.  The interval is empty at the first
   iteration by construction ([lo(init) .. lo(J)-1]), so no guard on
   "a previous iteration exists" is needed.  Enables the classic
   forward-sweep pattern [W(J) = ... W(J-1) ...]. *)
let so_far_region env (d : do_loop) (r : region) : region option =
  let idx = d.index in
  let step_ok = match d.step with None -> true | Some e -> Expr.int_val e = Some 1 in
  if not step_ok then None
  else begin
    let mentions p = Poly.mentions_var idx p in
    let varying = List.filter (fun (lo, hi) -> mentions lo || mentions hi) r.rdims in
    match varying with
    | [ _ ] ->
      let init = Poly.of_expr d.init in
      let opaque_capture p =
        List.exists
          (function
            | Atom.Aopaque _ as a -> Atom.mentions idx a
            | Atom.Avar _ -> false)
          (Poly.atoms p)
      in
      let convert_dim (lo, hi) =
        if not (mentions lo || mentions hi) then Some (lo, hi)
        else if opaque_capture lo || opaque_capture hi then None
        else
          let next p =
            Poly.subst (Atom.var idx) (Poly.add (Poly.var idx) Poly.one) p
          in
          if
            Compare.monotonicity env (Atom.var idx) lo = Compare.Nondecreasing
            && Compare.prove_le env lo hi
            && Compare.prove_le env (next lo) (Poly.add hi Poly.one)
          then
            Some (Poly.subst (Atom.var idx) init lo, Poly.sub lo Poly.one)
          else None
      in
      let dims = List.map convert_dim r.rdims in
      if List.for_all Option.is_some dims then
        Some { rdims = List.map Option.get dims }
      else None
    | _ -> None
  end

(* ------------------------------------------------------------------ *)
(* Coverage                                                            *)

let point_region subs = { rdims = List.map (fun p -> (p, p)) subs }

(* effective region of a read subscript dimension through a monotonic
   index-array fact, if applicable *)
let fact_region st env (sub : Poly.t) : (Poly.t * Poly.t) option =
  match sub with
  | [ ([ (Atom.Aopaque (Ref (ind, [ pos ])), 1) ], c) ]
    when Util.Rat.equal c Util.Rat.one ->
    List.find_map
      (fun f ->
        if f.active && String.equal f.ind_array ind then begin
          let posp = Poly.of_expr pos in
          if
            Demand.prove_ge st.ddefs env posp f.pos_lo
            && Demand.prove_le st.ddefs env posp (Poly.var f.counter)
          then Some (f.val_lo, f.val_hi)
          else None
        end
        else None)
      st.facts
  | _ -> None

(* active monotonic counters carry interval facts for the proofs *)
let env_with_facts st env =
  List.fold_left
    (fun env f ->
      if f.active then
        Range.refine env (Atom.var f.counter)
          (Range.between f.counter_lo f.counter_hi)
      else env)
    env st.facts

let read_covered st env (subs : Poly.t list) : bool =
  let env = env_with_facts st env in
  (* exact-subscript domination *)
  List.exists
    (fun ws ->
      List.length ws = List.length subs && List.for_all2 Poly.equal ws subs)
    st.exacts
  ||
  (* region coverage, with monotonic index-array translation per dim *)
  let effective =
    List.map
      (fun sub ->
        match fact_region st env sub with
        | Some (lo, hi) -> `Range (lo, hi)
        | None -> `Point sub)
      subs
  in
  List.exists
    (fun (r : region) ->
      List.length effective = List.length r.rdims
      && List.for_all2
           (fun eff (lo, hi) ->
             match eff with
             | `Point sub ->
               Demand.prove_le st.ddefs env lo sub
               && Demand.prove_le st.ddefs env sub hi
             | `Range (elo, ehi) ->
               Demand.prove_le st.ddefs env lo elo
               && Demand.prove_le st.ddefs env ehi hi)
           effective r.rdims)
    st.defs

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)

let fail st fmt =
  Fmt.kstr (fun m -> if st.failure = None then st.failure <- Some m) fmt

(* check the reads of array [st.array] inside expression [e] *)
let rec check_reads_expr st env (e : expr) =
  (match e with
  | Ref (a, subs) when String.equal a st.array ->
    let subs' = List.map (fun x -> Poly.of_expr (subst_apply st.subst x)) subs in
    if not (read_covered st env subs') then
      fail st "read %s(%s) not covered by a dominating write [defs: %s]" st.array
        (String.concat ", " (List.map Poly.to_string subs'))
        (String.concat "; "
           (List.map
              (fun r ->
                String.concat ","
                  (List.map
                     (fun (lo, hi) ->
                       Fmt.str "[%s..%s]" (Poly.to_string lo) (Poly.to_string hi))
                     r.rdims))
              st.defs))
  | _ -> ());
  List.iter (check_reads_expr st env) (Expr.children e)

(* add a region to the coverage set, union-merging when provable *)
let add_def st env (r : region) =
  let rec go acc = function
    | [] -> r :: acc
    | r0 :: rest -> (
      match try_merge env r0 r with
      | Some m -> m :: (acc @ rest)
      | None -> go (r0 :: acc) rest)
  in
  st.defs <- go [] st.defs

let deactivate_on_write st name =
  List.iter
    (fun f ->
      if
        f.active
        && (String.equal f.ind_array name || String.equal f.counter name)
      then f.active <- false)
    st.facts

(* returns the dense regions made by unconditional writes of this block
   (to be collapsed by the enclosing loop) *)
let rec walk st env (b : block) : region list =
  let made = ref [] in
  List.iter
    (fun (s : stmt) ->
      match s.kind with
      | Assign (lhs, rhs) -> (
        (match lhs with
        | Ref (_, subs) -> List.iter (check_reads_expr st env) subs
        | _ -> ());
        check_reads_expr st env rhs;
        match lhs with
        | Ref (a, subs) when String.equal a st.array ->
          let subs' =
            List.map (fun x -> Poly.of_expr (subst_apply st.subst x)) subs
          in
          st.exacts <- subs' :: st.exacts;
          let r = point_region subs' in
          add_def st env r;
          made := r :: !made
        | Ref (a, _) ->
          deactivate_on_write st a;
          st.subst <- subst_kill st.subst [ a ]
        | Var v ->
          deactivate_on_write st v;
          st.subst <- subst_kill st.subst [ v ];
          let rhs' = subst_apply st.subst rhs in
          if
            (not (Expr.mentions v rhs'))
            && not (Expr.exists (function Fun_call _ -> true | _ -> false) rhs')
          then st.subst <- (v, rhs') :: st.subst
        | _ -> ())
      | If (c, t, e) ->
        check_reads_expr st env c;
        let saved_defs = st.defs
        and saved_exacts = st.exacts
        and saved_subst = st.subst in
        ignore (walk st env t);
        st.defs <- saved_defs;
        st.exacts <- saved_exacts;
        st.subst <- saved_subst;
        ignore (walk st env e);
        st.defs <- saved_defs;
        st.exacts <- saved_exacts;
        st.subst <- subst_kill saved_subst (Stmt.assigned_names t @ Stmt.assigned_names e)
      | Do d ->
        check_reads_expr st env d.init;
        check_reads_expr st env d.limit;
        Option.iter (check_reads_expr st env) d.step;
        let saved_exacts = st.exacts and saved_subst = st.subst in
        let saved_defs = st.defs in
        st.subst <- subst_kill st.subst (d.index :: Stmt.assigned_names d.body);
        let denv = Range_prop.enter_loop env d in
        (* prospect pass: discover the body's dense writes so that
           written-so-far regions are available while walking it *)
        let fact_actives = List.map (fun f -> f.active) st.facts in
        let probe = { st with failure = st.failure } in
        (* the probe is best-effort: arithmetic and lookup failures on
           odd subscripts just mean "no dense regions discovered", but
           anything else (Stack_overflow, Out_of_memory, genuine bugs)
           must propagate to the pipeline's fault-containment guard *)
        let probe_made =
          try walk probe denv d.body
          with Division_by_zero | Invalid_argument _ | Not_found -> []
        in
        List.iter2 (fun f a -> f.active <- a) st.facts fact_actives;
        List.iter
          (fun r ->
            match so_far_region denv d r with
            | Some r' -> add_def st denv r'
            | None -> ())
          probe_made;
        let inner_made = walk st denv d.body in
        (* per-iteration knowledge does not survive the loop *)
        st.exacts <- saved_exacts;
        st.subst <- subst_kill saved_subst (d.index :: Stmt.assigned_names d.body);
        st.defs <- saved_defs;
        (* completed dense regions survive *)
        let step_ok =
          match d.step with None -> true | Some e -> Expr.int_val e = Some 1
        in
        if step_ok then
          List.iter
            (fun r ->
              match collapse_region denv d.index r with
              | Some r' ->
                add_def st env r';
                made := r' :: !made
              | None -> ())
            inner_made;
        (* activate monotonic index facts filled by this loop *)
        List.iter
          (fun f -> if f.fill_sid = s.sid then f.active <- true)
          st.facts
      | While (c, body) ->
        check_reads_expr st env c;
        let saved_defs = st.defs
        and saved_exacts = st.exacts
        and saved_subst = st.subst in
        ignore (walk st env body);
        st.defs <- saved_defs;
        st.exacts <- saved_exacts;
        st.subst <- subst_kill saved_subst (Stmt.assigned_names body)
      | Call (_, args) ->
        List.iter (check_reads_expr st env) args;
        if List.exists (Expr.mentions st.array) args then
          fail st "%s escapes through a CALL" st.array;
        st.subst <- [];
        List.iter (fun f -> f.active <- false) st.facts
      | Print args -> List.iter (check_reads_expr st env) args
      | Goto _ -> fail st "unstructured control flow (GOTO)"
      | Continue | Return | Stop -> ())
    b;
  !made

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

(** Is [array] privatizable for the loop [d] of unit [u]?
    [outer_env] carries facts holding at the loop (range propagation),
    and [defs] the scalar definitions reaching it
    ([Demand.defs_at unit_ ~target:] the loop's statement id), which
    the demand-driven proofs substitute.  Returns [Ok ()] or
    [Error reason]. *)
let analyze ~(unit_ : Punit.t) ~(outer_env : Range.env) ~(defs : Demand.defs)
    ~(d : do_loop) ~(array : string) : (unit, string) result =
  (* privatization exists to break the anti/flow dependences of a
     temporary: an array never read in the loop has only output
     dependences, which privatization does not remove (merging colliding
     private copies back needs last-writer tracking Polaris did not do) *)
  let array_n = Symtab.norm array in
  let has_read = ref false in
  let count_reads e =
    Expr.iter
      (function
        | Ref (a, _) when String.equal a array_n -> has_read := true
        | _ -> ())
      e
  in
  Stmt.iter
    (fun (s : stmt) ->
      List.iter
        (fun ((role : Stmt.expr_role), e) ->
          match (role, e) with
          | Stmt.Elhs, Ref (_, subs) -> List.iter count_reads subs
          | Stmt.Elhs, _ -> ()
          | _, e -> count_reads e)
        (Stmt.exprs_of s))
    d.body;
  let env = Range_prop.enter_loop outer_env d in
  let st =
    { array; unit_; ddefs = defs; defs = []; exacts = []; subst = [];
      facts = detect_facts unit_.pu_symtab env d.body; failure = None }
  in
  ignore (walk st env d.body);
  if not !has_read then
    Error "array is write-only in the loop: only output dependences, not removable by privatization"
  else match st.failure with None -> Ok () | Some m -> Error m

(** Would the loop also need a last-value copy-out for [array]?  True
    when the array is referenced anywhere in the unit outside the loop
    body (conservative liveness). *)
let needs_copy_out ~(unit_ : Punit.t) ~(d : do_loop) ~(array : string) : bool =
  let inside = Stmt.fold (fun acc s -> s.sid :: acc) [] d.body in
  Stmt.fold
    (fun acc (s : stmt) ->
      acc
      || (not (List.mem s.sid inside))
         && List.exists (fun (_, e) -> Expr.mentions array e) (Stmt.exprs_of s))
    false unit_.pu_body
