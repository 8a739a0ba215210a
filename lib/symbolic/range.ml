(** Symbolic intervals and range environments (paper §3.3.1).

    Range propagation determines a symbolic lower and upper bound for
    each variable at each program point; an environment maps atoms to
    such intervals.  Bounds are polynomials or infinities. *)

type bound = Finite of Poly.t | Neg_inf | Pos_inf

type interval = { lo : bound; hi : bound }

let top = { lo = Neg_inf; hi = Pos_inf }
let exact p = { lo = Finite p; hi = Finite p }
let between lo hi = { lo = Finite lo; hi = Finite hi }
let at_least p = { lo = Finite p; hi = Pos_inf }
let at_most p = { lo = Neg_inf; hi = Finite p }

let bound_mentions_var name = function
  | Finite p -> Poly.mentions_var name p
  | Neg_inf | Pos_inf -> false

(** An environment: ordered association of atoms to intervals.  Later
    entries shadow earlier ones (insertion = refinement push). *)
type env = (Atom.t * interval) list

let empty : env = []

let hash_bound h = function
  | Finite p -> Fir.Expr.hash_combine h (Poly.hash p)
  | Neg_inf -> Fir.Expr.hash_combine h 0x1f
  | Pos_inf -> Fir.Expr.hash_combine h 0x2f

let hash_env (env : env) =
  List.fold_left
    (fun h (a, iv) ->
      hash_bound (hash_bound (Fir.Expr.hash_combine h (Atom.hash a)) iv.lo) iv.hi)
    0x3b9aca07 env

(* the last env hashed on this domain, and its hash *)
type last_hashed = { mutable l_env : env; mutable l_hash : int }

let last_hashed =
  Domain.DLS.new_key (fun () -> { l_env = empty; l_hash = hash_env empty })

(** Hash of every entry of [env] — atoms and both bounds — for the memo
    keys that carry an env.  Walking an env costs far more than the
    rest of a key, and a proof asks with one env value many times (the
    range test sanitizes one per tested position), so each domain keeps
    the last env it hashed and answers a physically equal env ([==],
    sound since envs are immutable) without walking it. *)
let hash (env : env) =
  let l = Domain.DLS.get last_hashed in
  if l.l_env == env then l.l_hash
  else begin
    let h = hash_env env in
    l.l_env <- env;
    l.l_hash <- h;
    h
  end

let find (env : env) (a : Atom.t) : interval option =
  List.assoc_opt a env
  |> function Some i -> Some i | None -> None

(** Push a (possibly refining) interval for [a]. *)
let push (env : env) a iv : env = (a, iv) :: env

(** Refine an existing interval by intersection. *)
let meet (a : interval) (b : interval) : interval =
  (* without comparing bounds we cannot pick the tighter of two finite
     bounds; prefer [b] (the newer fact) when both are finite *)
  let lo =
    match (a.lo, b.lo) with
    | Neg_inf, x | x, Neg_inf -> x
    | _, x -> x
  in
  let hi =
    match (a.hi, b.hi) with
    | Pos_inf, x | x, Pos_inf -> x
    | _, x -> x
  in
  { lo; hi }

let refine (env : env) a iv : env =
  match find env a with
  | Some old -> push env a (meet old iv)
  | None -> push env a iv

(** Remove all knowledge about scalar variable [name]: its own entry
    and every interval whose bounds mention it.  Called when [name] is
    assigned. *)
let kill_var (env : env) name : env =
  let name = Fir.Symtab.norm name in
  List.filter
    (fun (a, iv) ->
      (not (Atom.mentions name a))
      && (not (bound_mentions_var name iv.lo))
      && not (bound_mentions_var name iv.hi))
    env

let pp_bound ppf = function
  | Finite p -> Poly.pp ppf p
  | Neg_inf -> Fmt.string ppf "-inf"
  | Pos_inf -> Fmt.string ppf "+inf"

let pp_interval ppf iv = Fmt.pf ppf "[%a, %a]" pp_bound iv.lo pp_bound iv.hi

let pp ppf (env : env) =
  List.iter
    (fun (a, iv) -> Fmt.pf ppf "%s in %a@." (Atom.to_string a) pp_interval iv)
    env
