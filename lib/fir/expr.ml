(** Operations on {!Ast.expr} values: construction helpers, structural
    equality, traversal, substitution and a light algebraic simplifier.

    The Polaris paper (§2) stresses powerful structural-equality and
    pattern-matching routines on expressions; this module provides the
    former, {!Pattern} the latter. *)

open Ast

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)

let int n = Int_lit n
let real x = Real_lit x
let var v = Var (String.uppercase_ascii v)
let ref_ v args = Ref (String.uppercase_ascii v, args)
let call f args = Fun_call (String.uppercase_ascii f, args)

let add a b = Binary (Add, a, b)
let sub a b = Binary (Sub, a, b)
let mul a b = Binary (Mul, a, b)
let div a b = Binary (Div, a, b)
let pow a b = Binary (Pow, a, b)
let neg a = Unary (Neg, a)
let zero = Int_lit 0
let one = Int_lit 1

let lt a b = Binary (Lt, a, b)
let le a b = Binary (Le, a, b)
let gt a b = Binary (Gt, a, b)
let ge a b = Binary (Ge, a, b)
let eq a b = Binary (Eq, a, b)
let ne a b = Binary (Ne, a, b)

(* ------------------------------------------------------------------ *)
(* Equality / ordering                                                 *)

(* Hand-written rather than polymorphic compare: (1) physical equality
   short-circuits, so comparing a subtree with itself costs one pointer
   test; (2) [Real_lit] uses [Float.compare], so [equal] and [compare]
   agree even on NaN, where polymorphic [=] and [Stdlib.compare]
   contradict each other. *)

(** Structural equality; [Wildcard i] only equals [Wildcard i]. *)
let rec equal (a : expr) (b : expr) =
  a == b
  ||
  match (a, b) with
  | Int_lit x, Int_lit y -> x = y
  | Real_lit x, Real_lit y -> Float.compare x y = 0
  | Logical_lit x, Logical_lit y -> x = y
  | Char_lit x, Char_lit y -> String.equal x y
  | Var x, Var y -> String.equal x y
  | Wildcard i, Wildcard j -> i = j
  | Ref (v, xs), Ref (w, ys) | Fun_call (v, xs), Fun_call (w, ys) ->
    String.equal v w && equal_list xs ys
  | Unary (op, x), Unary (oq, y) -> op = oq && equal x y
  | Binary (op, x1, x2), Binary (oq, y1, y2) ->
    op = oq && equal x1 y1 && equal x2 y2
  | ( ( Int_lit _ | Real_lit _ | Logical_lit _ | Char_lit _ | Var _
      | Wildcard _ | Ref _ | Fun_call _ | Unary _ | Binary _ ),
      _ ) ->
    false

and equal_list xs ys =
  match (xs, ys) with
  | [], [] -> true
  | x :: xs, y :: ys -> equal x y && equal_list xs ys
  | _ -> false

let constructor_rank = function
  | Int_lit _ -> 0
  | Real_lit _ -> 1
  | Logical_lit _ -> 2
  | Char_lit _ -> 3
  | Var _ -> 4
  | Ref _ -> 5
  | Fun_call _ -> 6
  | Unary _ -> 7
  | Binary _ -> 8
  | Wildcard _ -> 9

(** Total structural order, used to key maps of expressions.  Agrees
    with {!equal} ([compare a b = 0] iff [equal a b]). *)
let rec compare (a : expr) (b : expr) =
  if a == b then 0
  else
    match (a, b) with
    | Int_lit x, Int_lit y -> Int.compare x y
    | Real_lit x, Real_lit y -> Float.compare x y
    | Logical_lit x, Logical_lit y -> Bool.compare x y
    | Char_lit x, Char_lit y -> String.compare x y
    | Var x, Var y -> String.compare x y
    | Wildcard i, Wildcard j -> Int.compare i j
    | Ref (v, xs), Ref (w, ys) | Fun_call (v, xs), Fun_call (w, ys) ->
      let c = String.compare v w in
      if c <> 0 then c else compare_list xs ys
    | Unary (op, x), Unary (oq, y) ->
      let c = Stdlib.compare op oq in
      if c <> 0 then c else compare x y
    | Binary (op, x1, x2), Binary (oq, y1, y2) ->
      let c = Stdlib.compare op oq in
      if c <> 0 then c
      else
        let c = compare x1 y1 in
        if c <> 0 then c else compare x2 y2
    | _ -> Int.compare (constructor_rank a) (constructor_rank b)

and compare_list xs ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys ->
    let c = compare x y in
    if c <> 0 then c else compare_list xs ys

(* ------------------------------------------------------------------ *)
(* Hashing                                                             *)

let hash_combine h k = (h * 0x01000193) lxor k

(** Structural hash consistent with {!equal}, bounded so pathological
    trees stay cheap: at most [64] nodes contribute. *)
let hash (e : expr) : int =
  let budget = ref 64 in
  let rec go h e =
    if !budget <= 0 then h
    else begin
      decr budget;
      match e with
      | Int_lit n -> hash_combine h (n lxor 0x11)
      | Real_lit x -> hash_combine h (Hashtbl.hash x lxor 0x22)
      | Logical_lit b -> hash_combine h (if b then 0x33 else 0x44)
      | Char_lit s -> hash_combine h (Hashtbl.hash s lxor 0x55)
      | Var v -> hash_combine h (Hashtbl.hash v lxor 0x66)
      | Wildcard i -> hash_combine h (i lxor 0x77)
      | Ref (v, args) ->
        List.fold_left go (hash_combine (go h (Var v)) 0x88) args
      | Fun_call (v, args) ->
        List.fold_left go (hash_combine (go h (Var v)) 0x99) args
      | Unary (op, a) -> go (hash_combine h (Hashtbl.hash op lxor 0xaa)) a
      | Binary (op, a, b) ->
        go (go (hash_combine h (Hashtbl.hash op lxor 0xbb)) a) b
    end
  in
  go 0x811c9dc5 e land max_int

(* ------------------------------------------------------------------ *)
(* Traversal                                                           *)

(** Direct sub-expressions of [e]. *)
let children = function
  | Int_lit _ | Real_lit _ | Logical_lit _ | Char_lit _ | Var _ | Wildcard _ -> []
  | Ref (_, args) | Fun_call (_, args) -> args
  | Unary (_, a) -> [ a ]
  | Binary (_, a, b) -> [ a; b ]

(** Bottom-up rewrite: rebuilds [e] with [f] applied to every node. *)
let rec map f e =
  let e' =
    match e with
    | Int_lit _ | Real_lit _ | Logical_lit _ | Char_lit _ | Var _ | Wildcard _ -> e
    | Ref (v, args) -> Ref (v, List.map (map f) args)
    | Fun_call (g, args) -> Fun_call (g, List.map (map f) args)
    | Unary (op, a) -> Unary (op, map f a)
    | Binary (op, a, b) -> Binary (op, map f a, map f b)
  in
  f e'

(** Pre-order fold over every node of the expression tree. *)
let rec fold f acc e = List.fold_left (fold f) (f acc e) (children e)

let iter f e = fold (fun () x -> f x) () e

(** Does any node of [e] satisfy [p]? *)
let exists p e = fold (fun acc x -> acc || p x) false e

(** All scalar-variable names read in [e] (array base names excluded). *)
let scalar_vars e =
  fold (fun acc -> function Var v -> v :: acc | _ -> acc) [] e
  |> List.sort_uniq String.compare

(** All names referenced in [e]: scalars, array bases and called functions. *)
let all_names e =
  fold
    (fun acc -> function
      | Var v -> v :: acc
      | Ref (v, _) -> v :: acc
      | Fun_call (f, _) -> f :: acc
      | _ -> acc)
    [] e
  |> List.sort_uniq String.compare

(** [mentions name e] is true if [e] references [name] as a scalar, an
    array base, or a function. *)
let mentions name e =
  exists (function
    | Var v | Ref (v, _) | Fun_call (v, _) -> String.equal v name
    | _ -> false) e

(* ------------------------------------------------------------------ *)
(* Substitution                                                        *)

(** [subst_var v by e] replaces every scalar reference [Var v] by [by]. *)
let subst_var v by e =
  map (function Var x when String.equal x v -> by | x -> x) e

(** [subst tbl e] applies a simultaneous scalar substitution. *)
let subst tbl e =
  map
    (function
      | Var x as orig ->
        (match List.assoc_opt x tbl with Some by -> by | None -> orig)
      | x -> x)
    e

(** Rename every identifier (scalars, array bases, calls) via [f]. *)
let rename f e =
  map
    (function
      | Var v -> Var (f v)
      | Ref (v, args) -> Ref (f v, args)
      | Fun_call (g, args) -> Fun_call (f g, args)
      | x -> x)
    e

(* ------------------------------------------------------------------ *)
(* Constant evaluation and simplification                              *)

(** [int_val e] is [Some n] if [e] is a (possibly signed) integer literal. *)
let rec int_val = function
  | Int_lit n -> Some n
  | Unary (Neg, e) -> Option.map (fun n -> -n) (int_val e)
  | _ -> None

let is_const e = Option.is_some (int_val e)

let rec pow_int b e = if e <= 0 then 1 else b * pow_int b (e - 1)

(** One-layer arithmetic simplification used to keep generated code
    readable; the heavy symbolic machinery lives in {!Symbolic.Poly}. *)
let simplify_node = function
  | Binary (Add, Int_lit a, Int_lit b) -> Int_lit (a + b)
  | Binary (Sub, Int_lit a, Int_lit b) -> Int_lit (a - b)
  | Binary (Mul, Int_lit a, Int_lit b) -> Int_lit (a * b)
  | Binary (Div, Int_lit a, Int_lit b) when b <> 0 && a mod b = 0 -> Int_lit (a / b)
  | Binary (Pow, Int_lit a, Int_lit b) when b >= 0 && b < 8 -> Int_lit (pow_int a b)
  | Binary (Add, e, Int_lit 0) | Binary (Add, Int_lit 0, e) -> e
  | Binary (Sub, e, Int_lit 0) -> e
  | Binary (Mul, e, Int_lit 1) | Binary (Mul, Int_lit 1, e) -> e
  | Binary (Mul, _, Int_lit 0) | Binary (Mul, Int_lit 0, _) -> Int_lit 0
  | Binary (Div, e, Int_lit 1) -> e
  | Binary (Pow, e, Int_lit 1) -> e
  | Binary (Pow, _, Int_lit 0) -> Int_lit 1
  | Unary (Neg, Int_lit n) -> Int_lit (-n)
  | Unary (Neg, Unary (Neg, e)) -> e
  | Unary (Not, Logical_lit b) -> Logical_lit (not b)
  | e -> e

let simplify e = map simplify_node e

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let unop_to_string = function Neg -> "-" | Not -> ".NOT."

let binop_to_string = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Pow -> "**"
  | And -> ".AND." | Or -> ".OR."
  | Eq -> ".EQ." | Ne -> ".NE." | Lt -> ".LT." | Le -> ".LE."
  | Gt -> ".GT." | Ge -> ".GE."

let precedence = function
  | Or -> 1 | And -> 2
  | Eq | Ne | Lt | Le | Gt | Ge -> 3
  | Add | Sub -> 4
  | Mul | Div -> 5
  | Pow -> 6

(** Fortran-syntax rendering with minimal parentheses. *)
let rec pp ppf e = pp_prec 0 ppf e

and pp_prec ctx ppf = function
  | Int_lit n -> if n < 0 then Fmt.pf ppf "(%d)" n else Fmt.int ppf n
  | Real_lit x ->
    if Float.is_integer x && Float.abs x < 1e9 then Fmt.pf ppf "%.1f" x
    else Fmt.pf ppf "%g" x
  | Logical_lit true -> Fmt.string ppf ".TRUE."
  | Logical_lit false -> Fmt.string ppf ".FALSE."
  | Char_lit s -> Fmt.pf ppf "'%s'" s
  | Var v -> Fmt.string ppf v
  | Wildcard n -> Fmt.pf ppf "?%d" n
  | Ref (v, args) | Fun_call (v, args) ->
    Fmt.pf ppf "%s(%a)" v Fmt.(list ~sep:(any ", ") pp) args
  | Unary (op, a) ->
    if ctx > 4 then Fmt.pf ppf "(%s%a)" (unop_to_string op) (pp_prec 4) a
    else Fmt.pf ppf "%s%a" (unop_to_string op) (pp_prec 4) a
  | Binary (op, a, b) ->
    let p = precedence op in
    let body ppf () =
      Fmt.pf ppf "%a %s %a" (pp_prec p) a (binop_to_string op) (pp_prec (p + 1)) b
    in
    if p < ctx then Fmt.pf ppf "(%a)" body () else body ppf ()

let to_string e = Fmt.str "%a" pp e
