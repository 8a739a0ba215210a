(** First-class pass identities (the Juvix [TransformationId] pattern).

    Every pass in [lib/passes] is one constructor here, with its
    metadata — the guarded-pass name the observer and the validation
    oracle see, the analyses it declares it consumes (the reuse
    ledger), the analyses it invalidates by rewriting the IR, and the
    fail-safe capability its guard disables when it faults.  The
    pipeline interpreter ({!Pipeline.run}) dispatches on these ids;
    {!Registry} groups them into named pipelines and checks ordering
    constraints.  Adding a pass means adding a constructor and one
    dispatch arm — nothing else in the spine changes. *)

type t =
  | Inline       (** §3.1 inline expansion *)
  | Constprop    (** constant/copy propagation, first round *)
  | Induction    (** §3.2 induction-variable substitution *)
  | Constprop2   (** second propagation round (the TRFD X=X0 cleanup) *)
  | Deadcode     (** dead scalar-assignment cleanup *)
  | Parallelize  (** dependence/privatization/reduction analysis driver *)

(** Every pass, in the canonical (thorough) order. *)
let all = [ Inline; Constprop; Induction; Constprop2; Deadcode; Parallelize ]

(** The guarded-pass name: what the observer, the flight recorder and
    the incident records call this pass.  Stable — {!Valid.Snapshot}
    and the daemon's JSON log key on these strings. *)
let name = function
  | Inline -> "inline"
  | Constprop -> "constprop"
  | Induction -> "induction"
  | Constprop2 -> "constprop2"
  | Deadcode -> "deadcode"
  | Parallelize -> "parallelize"

let of_name s =
  match String.lowercase_ascii (String.trim s) with
  | "inline" -> Some Inline
  | "constprop" -> Some Constprop
  | "induction" -> Some Induction
  | "constprop2" -> Some Constprop2
  | "deadcode" -> Some Deadcode
  | "parallelize" -> Some Parallelize
  | _ -> None

let doc = function
  | Inline -> "inline small subroutines into call sites (paper §3.1)"
  | Constprop -> "propagate compile-time constants and copies"
  | Induction -> "substitute (generalized) induction variables (paper §3.2)"
  | Constprop2 -> "second propagation round: clean up induction's X=X0 exposures"
  | Deadcode -> "remove dead scalar assignments"
  | Parallelize -> "prove DOALLs: range test, privatization, reductions, LRPD"

(** Analyses the pass declares it consumes, by {!Util.Cachectl} cache
    name — re-exported from the pass modules so the declaration lives
    with the pass. *)
let consumes = function
  | Inline -> Passes.Inline.consumes
  | Constprop | Constprop2 -> Passes.Constprop.consumes
  | Induction -> Passes.Induction.consumes
  | Deadcode -> Passes.Deadcode.consumes
  | Parallelize -> Passes.Parallelize.consumes

(** Analyses whose cached facts the pass invalidates by rewriting the
    IR.  Mutating passes retire every structural/semantic fact about
    the units they touch (unit-version probes and content-addressed
    keys enforce this; the list documents which tables a rewrite
    actually ages).  [Parallelize] only annotates loop info — it
    rewrites no statements, so it invalidates nothing. *)
let invalidates = function
  | Inline | Constprop | Induction | Constprop2 | Deadcode ->
    [ "analysis.loops"; "analysis.access"; "analysis.defuse";
      "range_prop.env_at"; "dep.verdict" ]
  | Parallelize -> []

(** The fail-safe capability the guard disables when the pass faults.
    Both propagation rounds share ["constprop"]: a crashed first round
    also skips the second. *)
let disables = function
  | Inline -> "inline"
  | Constprop | Constprop2 -> "constprop"
  | Induction -> "induction"
  | Deadcode -> "deadcode"
  | Parallelize -> "parallelize"

(** Ordering constraints: [(before, after, why)] — in any pipeline
    containing both passes, [before] must precede [after].
    {!Registry.check} rejects violations naming the edge. *)
let ordering_edges : (t * t * string) list =
  List.concat
    [ (* inlining rewrites call sites wholesale; every later pass must
         see the flattened program or its work is thrown away *)
      List.map
        (fun p -> (Inline, p, "inline rewrites call sites the later passes analyze"))
        [ Constprop; Induction; Constprop2; Deadcode; Parallelize ];
      [ ( Constprop, Constprop2,
          "the second propagation round cleans up after the first" );
        ( Induction, Constprop2,
          "constprop2 propagates the X=X0 constants induction substitution \
           exposes" ) ];
      (* parallelize only annotates; a mutating pass after it would
         rewrite the statements its directives point at *)
      List.map
        (fun p ->
          (p, Parallelize, "parallelize annotates the final program text"))
        [ Constprop; Induction; Constprop2; Deadcode ] ]

let pp ppf p = Fmt.string ppf (name p)
