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
