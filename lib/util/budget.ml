(** Analysis budgets: step fuel.

    The symbolic engine and the dependence tests are recursive searches
    whose worst case is exponential; Polaris's answer (paper §2) was that
    an analysis that cannot finish must fail {e safe} — the verdict
    degrades to "unknown" and the loop stays serial, it never loops
    forever or aborts the compilation.  A [Budget.t] is the shared
    currency of that contract: every elimination / monotonicity step of
    {!Symbolic.Compare} and every access-pair test of the dependence
    drivers spends from one budget, and once it is exhausted every
    further proof attempt answers "unprovable" immediately.

    Exhaustion is sticky: once [spend] refuses, the budget stays
    exhausted, so a search cannot oscillate between starved and funded
    sub-proofs.  Budgets are deterministic: the same step allowance
    gives the same verdicts on every run. *)

type t = {
  mutable steps : int;       (** remaining step fuel (meaningless if infinite) *)
  infinite : bool;           (** no step limit *)
  mutable exhausted : bool;
  mutable used : int;        (** steps successfully consumed so far *)
}

(** [create ?steps ()]: a budget with [steps] of fuel (omit for
    unlimited steps). *)
let create ?steps () =
  { steps = Option.value steps ~default:0;
    infinite = steps = None;
    exhausted = false;
    used = 0 }

(** A budget that never exhausts on its own. *)
let unlimited () = create ()

let exhausted t = t.exhausted

(** Force exhaustion (the chaos injector's lever; also useful to cancel
    an in-flight analysis). *)
let exhaust t = t.exhausted <- true

(** [spend t n] consumes [n] steps.  Returns [true] if the budget still
    stands, [false] (sticky) if it is now — or already was — exhausted.
    Callers must treat [false] as "stop proving, answer unknown". *)
let spend t n =
  if t.exhausted then false
  else begin
    (if not t.infinite then
       if t.steps < n then t.exhausted <- true
       else t.steps <- t.steps - n);
    if not t.exhausted then t.used <- t.used + n;
    not t.exhausted
  end

(** Steps successfully consumed so far.  Memoization layers measure the
    delta of [used] across a computation so a later cache hit can replay
    exactly the same consumption (see {!Cachectl}). *)
let used t = t.used

(** [afford t n] is [true] iff [spend t n] would succeed, without
    mutating the budget (in particular without tripping sticky
    exhaustion).  Used by replaying caches: a hit is only taken when the
    recorded cost is affordable, otherwise the computation reruns
    honestly and degrades exactly as the uncached compiler would. *)
let afford t n =
  (not t.exhausted)
  && (t.infinite || t.steps >= n)

let pp ppf t =
  if t.exhausted then Fmt.string ppf "exhausted"
  else if t.infinite then Fmt.string ppf "unlimited"
  else Fmt.pf ppf "%d steps left" t.steps
