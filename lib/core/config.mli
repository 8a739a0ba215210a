(** Compiler configurations: the Polaris capability set, the baseline
    ("PFA") capability set, and ablations in between.  Every
    configuration runs the one pass order of {!Pass_id.all}; [inline]
    only says whether the [inline] pass is among them. *)

type t = {
  name : string;               (** short label used in reports *)
  inline : bool;               (** §3.1 inline expansion *)
  generalized_induction : bool;
      (** §3.2 cascaded/triangular/geometric inductions (false =
          loop-invariant increments in rectangular nests only, the
          "current compiler" capability) *)
  mode : Passes.Parallelize.mode;
      (** range test + array privatization vs. GCD/Banerjee + scalars *)
  procs : int;                 (** simulated machine size *)
  budget_steps : int;
      (** analysis budget: symbolic/dependence-test steps available per
          loop verdict; exhaustion degrades the verdict to
          "unknown → serial" instead of looping or raising *)
  caches : bool;
      (** compile-time caches (symbolic memoization, loop range
          environments, dependence-verdict cache — see
          {!Util.Cachectl}).  Defaults to
          on unless [POLARIS_NO_CACHE=1] is in the environment; purely a
          performance lever, verdicts and output are identical either
          way *)
}

(** The full Polaris configuration (paper §3). *)
val polaris : ?procs:int -> unit -> t

(** The baseline standing in for SGI's PFA: the capability set the
    paper ascribes to "current compilers". *)
val baseline : ?procs:int -> unit -> t

(** Polaris without inline expansion (ablation). *)
val without_inline : ?procs:int -> unit -> t

(** Polaris with only classic (loop-invariant, rectangular) induction
    handling (ablation). *)
val without_generalized_induction : ?procs:int -> unit -> t
