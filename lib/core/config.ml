(** Compiler configuration: the Polaris capability set, the baseline
    ("PFA") capability set, and ablations in between.  Every
    configuration runs the one pass order of {!Pass_id.all}. *)

type t = {
  name : string;
  inline : bool;              (** §3.1 inline expansion *)
  generalized_induction : bool;
      (** §3.2 cascaded/triangular inductions (false = loop-invariant
          increments only, the "current compiler" capability) *)
  mode : Passes.Parallelize.mode;
      (** range test + array privatization vs. GCD/Banerjee + scalars *)
  procs : int;                (** simulated machine size *)
  budget_steps : int;
      (** analysis budget: symbolic/dependence-test steps available per
          loop verdict; exhaustion degrades the verdict to
          "unknown → serial" (see {!Util.Budget}, {!Dep.Driver}) *)
  caches : bool;
      (** compile-time caches (symbolic memoization, loop range
          environments, dependence-verdict cache — see
          {!Util.Cachectl}).  Defaults to
          on unless [POLARIS_NO_CACHE=1] is in the environment; purely a
          performance lever, verdicts and output are identical either
          way *)
}

(** The full Polaris configuration (paper §3). *)
let polaris ?(procs = 8) () =
  { name = "polaris"; inline = true; generalized_induction = true;
    mode = Passes.Parallelize.Polaris; procs;
    budget_steps = Dep.Driver.default_budget_steps;
    caches = Util.Cachectl.default_enabled }

(** The baseline configuration standing in for SGI's PFA: the
    capability set the paper ascribes to "current compilers". *)
let baseline ?(procs = 8) () =
  { name = "baseline"; inline = false; generalized_induction = false;
    mode = Passes.Parallelize.Baseline; procs;
    budget_steps = Dep.Driver.default_budget_steps;
    caches = Util.Cachectl.default_enabled }

(** Ablations: Polaris minus one technique, for the ablation bench. *)
let without_inline ?(procs = 8) () =
  { (polaris ~procs ()) with name = "polaris-noinline"; inline = false }

let without_generalized_induction ?(procs = 8) () =
  { (polaris ~procs ()) with
    name = "polaris-simple-induction";
    generalized_induction = false }
