(** The declarative pass/pipeline registry.

    A pipeline is a named list of {!Pass_id.t}s.  Three presets ship —
    [thorough] (the classic full Polaris order, the default), [fast]
    (skip inlining, the second propagation round and dead-code cleanup)
    and [serial] (every restructuring pass but no parallelization) —
    and [custom:p1,p2,...] builds one from pass names given to
    [--pipeline].  {!check} enforces the registry's ordering
    constraints ({!Pass_id.ordering_edges}) and rejects duplicates, so
    an ill-formed pipeline is a clean configuration error, never a
    miscompile. *)

type pipeline = {
  pl_name : string;
  pl_passes : Pass_id.t list;
}

let thorough =
  { pl_name = "thorough"; pl_passes = Pass_id.all }

let fast =
  { pl_name = "fast";
    pl_passes = Pass_id.[ Constprop; Induction; Parallelize ] }

let serial =
  { pl_name = "serial";
    pl_passes = Pass_id.[ Inline; Constprop; Induction; Constprop2; Deadcode ] }

(** The named presets, in listing order. *)
let presets = [ thorough; fast; serial ]

let preset_doc = function
  | "thorough" -> "every pass in the classic Polaris order (the default)"
  | "fast" -> "propagation + induction + parallelize: the quick verdict lane"
  | "serial" -> "restructure only; no parallelization pass, no directives"
  | _ -> ""

(** [check pl]: [Ok ()] iff [pl] has no duplicate passes and respects
    every ordering edge; the error names the violated constraint. *)
let check (pl : pipeline) : (unit, string) result =
  let rec dup = function
    | [] -> None
    | p :: tl -> if List.mem p tl then Some p else dup tl
  in
  match dup pl.pl_passes with
  | Some p ->
    Error
      (Printf.sprintf "pipeline '%s' lists pass '%s' twice" pl.pl_name
         (Pass_id.name p))
  | None ->
    let pos p =
      let rec go i = function
        | [] -> None
        | q :: tl -> if q = p then Some i else go (i + 1) tl
      in
      go 0 pl.pl_passes
    in
    let violated =
      List.find_opt
        (fun (before, after, _) ->
          match (pos before, pos after) with
          | Some i, Some j -> i > j
          | _ -> false)
        Pass_id.ordering_edges
    in
    (match violated with
    | None -> Ok ()
    | Some (before, after, why) ->
      Error
        (Printf.sprintf
           "pipeline '%s' violates ordering constraint '%s' < '%s' (%s)"
           pl.pl_name (Pass_id.name before) (Pass_id.name after) why))

(** [parse spec]: a preset name, or [custom:p1,p2,...] over
    {!Pass_id.of_name}.  The result already passed {!check}. *)
let parse (spec : string) : (pipeline, string) result =
  let spec = String.lowercase_ascii (String.trim spec) in
  match List.find_opt (fun pl -> pl.pl_name = spec) presets with
  | Some pl -> Ok pl
  | None ->
    let custom_prefix = "custom:" in
    if String.length spec > String.length custom_prefix
       && String.sub spec 0 (String.length custom_prefix) = custom_prefix
    then begin
      let names =
        String.sub spec (String.length custom_prefix)
          (String.length spec - String.length custom_prefix)
        |> String.split_on_char ','
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      if names = [] then Error "custom: pipeline lists no passes"
      else
        let rec resolve acc = function
          | [] -> Ok (List.rev acc)
          | n :: tl -> (
            match Pass_id.of_name n with
            | Some p -> resolve (p :: acc) tl
            | None ->
              Error
                (Printf.sprintf
                   "unknown pass '%s' (known: %s)" n
                   (String.concat ", " (List.map Pass_id.name Pass_id.all))))
        in
        match resolve [] names with
        | Error _ as e -> e
        | Ok passes ->
          let pl = { pl_name = spec; pl_passes = passes } in
          (match check pl with Ok () -> Ok pl | Error m -> Error m)
    end
    else
      Error
        (Printf.sprintf
           "unknown pipeline '%s' (presets: %s; or custom:p1,p2,...)" spec
           (String.concat ", " (List.map (fun pl -> pl.pl_name) presets)))

(* ------------------------------------------------------------------ *)
(* Listings (polaris --list-passes / --list-pipelines)                 *)

let pp_pass_entry ppf (p : Pass_id.t) =
  Fmt.pf ppf "%-12s %s@,%-12s   consumes: %s@,%-12s   invalidates: %s@,%-12s   disables-on-fault: %s"
    (Pass_id.name p) (Pass_id.doc p) ""
    (match Pass_id.consumes p with [] -> "-" | cs -> String.concat ", " cs)
    ""
    (match Pass_id.invalidates p with [] -> "-" | cs -> String.concat ", " cs)
    "" (Pass_id.disables p)

let pp_passes ppf () =
  Fmt.pf ppf "@[<v>%a@]@."
    (Fmt.list ~sep:Fmt.cut pp_pass_entry)
    Pass_id.all

let pp_pipelines ppf () =
  Fmt.pf ppf "@[<v>%a@]@."
    (Fmt.list ~sep:Fmt.cut (fun ppf pl ->
         Fmt.pf ppf "%-10s %s@,%-10s   passes: %s" pl.pl_name
           (preset_doc pl.pl_name) ""
           (String.concat " -> " (List.map Pass_id.name pl.pl_passes))))
    presets
