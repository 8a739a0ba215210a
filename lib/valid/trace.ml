(** Compilation flight recorder.

    A structured record of one pipeline run: per-pass wall-clock and CPU
    time and rewrite counts, dependence-test outcome counters (range
    test vs. GCD/Banerjee proved/failed, from {!Dep.Driver}), cache
    hit/miss counters ({!Util.Cachectl}), and per-loop verdict
    provenance.  Serialized to JSON so CI can diff recorder output
    across commits and the bench can trend it. *)

open Fir

(* ------------------------------------------------------------------ *)
(* Records                                                             *)

type pass_record = {
  pass : string;
  wall_s : float;   (** monotonic wall-clock seconds spent in the pass *)
  cpu_s : float;    (** CPU seconds spent in the pass ([Sys.time]) *)
  stmts : int;      (** statement count after the pass *)
  rewritten : int;  (** statements added or changed by the pass *)
}

type loop_record = {
  lr_unit : string;
  lr_index : string;
  lr_parallel : bool;
  lr_speculative : bool;
  lr_reason : string;  (** verdict provenance (proof / failure chain) *)
}

type t = {
  tr_config : string;
  tr_total_s : float;      (** wall-clock seconds, whole run *)
  tr_total_cpu_s : float;  (** CPU seconds, whole run *)
  tr_passes : pass_record list;
  tr_dep : Dep.Driver.counters;  (** counters accumulated by this run *)
  tr_cache : (string * int * int) list;
      (** per-cache (name, hits, misses) accumulated by this run — the
          {!Util.Cachectl} counter deltas *)
  tr_loops : loop_record list;
  tr_incidents : Core.Pipeline.incident list;
      (** contained pass failures (fail-safe rollbacks) during the run *)
  tr_reuse : Core.Pipeline.pass_reuse list;
      (** per-pass analysis consumption and reuse, from the cache
          counters via the pipeline ledger *)
}

(* ------------------------------------------------------------------ *)
(* Statement fingerprints: a shallow rendering (kind + own expressions,
   no nested bodies) so a rewrite deep in a loop body counts once       *)

let shallow_renderings (p : Program.t) : string list =
  let out = ref [] in
  List.iter
    (fun (u : Punit.t) ->
      Stmt.iter
        (fun (s : Ast.stmt) ->
          let tag =
            match s.kind with
            | Ast.Assign _ -> "assign"
            | Ast.If _ -> "if"
            | Ast.Do d -> "do " ^ d.index
            | Ast.While _ -> "while"
            | Ast.Call (n, _) -> "call " ^ n
            | Ast.Goto l -> "goto " ^ string_of_int l
            | Ast.Continue -> "continue"
            | Ast.Return -> "return"
            | Ast.Stop -> "stop"
            | Ast.Print _ -> "print"
          in
          let exprs =
            Stmt.exprs_of s |> List.map (fun (_, e) -> Expr.to_string e)
          in
          out :=
            (u.pu_name ^ ":" ^ tag ^ ":" ^ String.concat "," exprs) :: !out)
        u.pu_body)
    (Program.units p);
  !out

(* statements of [after] not present in the [before] multiset *)
let count_new before after =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun k -> Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    before;
  List.fold_left
    (fun acc k ->
      match Hashtbl.find_opt tbl k with
      | Some n when n > 0 ->
        Hashtbl.replace tbl k (n - 1);
        acc
      | _ -> acc + 1)
    0 after

(* ------------------------------------------------------------------ *)
(* Recorder: plugs into Core.Pipeline's observer                       *)

type recorder = {
  started : float;      (* wall clock (Unix.gettimeofday) *)
  started_cpu : float;  (* CPU clock (Sys.time) *)
  base_dep : Dep.Driver.counters;
  base_cache : (string * int * int) list;
  mutable last_time : float;
  mutable last_cpu : float;
  mutable prev : string list;         (* fingerprints after previous pass *)
  mutable recs : pass_record list;    (* reversed *)
}

let create () =
  let now = Unix.gettimeofday () in
  let cpu = Sys.time () in
  { started = now; started_cpu = cpu;
    base_dep = Dep.Driver.counters_snapshot ();
    base_cache = Util.Cachectl.snapshot ();
    last_time = now; last_cpu = cpu; prev = []; recs = [] }

(** The observer to pass to {!Core.Pipeline.run}. *)
let observe (r : recorder) (pass : string) (p : Program.t) =
  let now = Unix.gettimeofday () in
  let cpu = Sys.time () in
  let fingerprints = shallow_renderings p in
  let rewritten =
    match pass with "parse" -> 0 | _ -> count_new r.prev fingerprints
  in
  r.recs <-
    { pass; wall_s = now -. r.last_time; cpu_s = cpu -. r.last_cpu;
      stmts = List.length fingerprints; rewritten }
    :: r.recs;
  r.prev <- fingerprints;
  r.last_time <- now;
  r.last_cpu <- cpu

let finish (r : recorder) (t : Core.Pipeline.t) : t =
  let loops =
    List.map
      (fun (l : Core.Pipeline.loop_result) ->
        { lr_unit = l.unit_name; lr_index = l.report.loop_index;
          lr_parallel = l.report.parallel;
          lr_speculative = l.report.speculative;
          lr_reason = l.report.reason })
      t.loops
  in
  { tr_config = t.config.name;
    tr_total_s = Unix.gettimeofday () -. r.started;
    tr_total_cpu_s = Sys.time () -. r.started_cpu;
    tr_passes = List.rev r.recs;
    tr_dep =
      Dep.Driver.counters_delta ~base:r.base_dep
        (Dep.Driver.counters_snapshot ());
    tr_cache = Util.Cachectl.delta ~base:r.base_cache (Util.Cachectl.snapshot ());
    tr_loops = loops;
    tr_incidents = t.incidents;
    tr_reuse = t.reuse }

(** Compile [source] under [config] with the recorder attached. *)
let record_compile (config : Core.Config.t) (source : string) :
    Core.Pipeline.t * t =
  let r = create () in
  let t = Core.Pipeline.compile ~observer:(observe r) config source in
  (t, finish r t)

(* ------------------------------------------------------------------ *)
(* JSON serialization (no external dependency)                         *)

module Json = struct
  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let str s = "\"" ^ escape s ^ "\""
  let int = string_of_int
  let bool b = if b then "true" else "false"
  let float f = Printf.sprintf "%.6f" f
  let arr xs = "[" ^ String.concat "," xs ^ "]"

  let obj fields =
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields)
    ^ "}"

  let null = "null"
end

let dep_json (d : Dep.Driver.counters) =
  Json.obj
    [ ("range_proved", Json.int d.range_proved);
      ("range_failed", Json.int d.range_failed);
      ("gcd_banerjee_proved", Json.int d.linear_proved);
      ("gcd_banerjee_failed", Json.int d.linear_failed);
      ("budget_unknown", Json.int d.unknown) ]

let incident_json (i : Core.Pipeline.incident) =
  Json.obj
    [ ("pass", Json.str i.inc_pass);
      ("reason", Json.str i.inc_reason);
      ("rolled_back", Json.bool i.inc_rolled_back);
      ( "disabled",
        match i.inc_disabled with Some c -> Json.str c | None -> Json.null ) ]

let cache_json (stats : (string * int * int) list) =
  Json.arr
    (List.map
       (fun (name, hits, misses) ->
         Json.obj
           [ ("cache", Json.str name);
             ("hits", Json.int hits);
             ("misses", Json.int misses) ])
       stats)

let to_json (t : t) : string =
  Json.obj
    [ ("config", Json.str t.tr_config);
      ("total_wall_s", Json.float t.tr_total_s);
      ("total_cpu_s", Json.float t.tr_total_cpu_s);
      ( "passes",
        Json.arr
          (List.map
             (fun (p : pass_record) ->
               Json.obj
                 [ ("pass", Json.str p.pass);
                   ("wall_s", Json.float p.wall_s);
                   ("cpu_s", Json.float p.cpu_s);
                   ("stmts", Json.int p.stmts);
                   ("rewritten", Json.int p.rewritten) ])
             t.tr_passes) );
      ("dep_tests", dep_json t.tr_dep);
      ("caches", cache_json t.tr_cache);
      ( "loops",
        Json.arr
          (List.map
             (fun (l : loop_record) ->
               Json.obj
                 [ ("unit", Json.str l.lr_unit);
                   ("loop", Json.str l.lr_index);
                   ("parallel", Json.bool l.lr_parallel);
                   ("speculative", Json.bool l.lr_speculative);
                   ("reason", Json.str l.lr_reason) ])
             t.tr_loops) );
      ("incidents", Json.arr (List.map incident_json t.tr_incidents));
      ( "reuse",
        Json.arr
          (List.map
             (fun (r : Core.Pipeline.pass_reuse) ->
               Json.obj
                 [ ("pass", Json.str r.pr_pass);
                   ("consumes", Json.arr (List.map Json.str r.pr_consumes));
                   ("analyses", cache_json r.pr_cache) ])
             t.tr_reuse) ) ]

(* ------------------------------------------------------------------ *)
(* The --explain-reuse table                                           *)

(** Per-pass table of analyses consumed / reused / computed, from the
    pipeline's reuse ledger ([polaris --explain-reuse]). *)
let pp_reuse_table ppf (reuse : Core.Pipeline.pass_reuse list) =
  Fmt.pf ppf "analysis reuse by pass:@.";
  List.iter
    (fun (r : Core.Pipeline.pass_reuse) ->
      Fmt.pf ppf "  %-12s consumes: %s@." r.pr_pass
        (if r.pr_consumes = [] then "-" else String.concat ", " r.pr_consumes);
      List.iter
        (fun (name, hits, misses) ->
          Fmt.pf ppf "    %-22s %7d reused %7d computed@." name hits misses)
        r.pr_cache)
    reuse

let pp ppf (t : t) =
  Fmt.pf ppf "flight record [%s] %.3fs wall (%.3fs cpu)@," t.tr_config
    t.tr_total_s t.tr_total_cpu_s;
  List.iter
    (fun (p : pass_record) ->
      Fmt.pf ppf "  %-12s %8.4fs wall %8.4fs cpu  %4d stmts  %3d rewritten@,"
        p.pass p.wall_s p.cpu_s p.stmts p.rewritten)
    t.tr_passes;
  Fmt.pf ppf "  dep tests: range %d/%d proved, gcd/banerjee %d/%d proved@,"
    t.tr_dep.range_proved
    (t.tr_dep.range_proved + t.tr_dep.range_failed)
    t.tr_dep.linear_proved
    (t.tr_dep.linear_proved + t.tr_dep.linear_failed);
  List.iter
    (fun (name, hits, misses) ->
      if hits + misses > 0 then
        Fmt.pf ppf "  cache %-22s %7d hits %7d misses@," name hits misses)
    t.tr_cache;
  List.iter
    (fun i -> Fmt.pf ppf "  %a@," Core.Pipeline.pp_incident i)
    t.tr_incidents
