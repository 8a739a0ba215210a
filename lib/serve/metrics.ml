(** Per-session and server-wide observability for the compile daemon.

    Every request is timed server-side; sessions accumulate request
    counts, contained incidents, errors, and the two reuse telemetries:
    the {e tracked} rate over every analysis cache (what
    `polaris serve` reports) and the {e shared} rate over the
    persistent caches only — the facts that actually cross session and
    process boundaries through {!Store}.  The [Stats] request and the
    JSON server log are rendered from these records. *)

(* ------------------------------------------------------------------ *)
(* Latency recorder                                                    *)

type recorder = {
  mutable samples : float list;  (** seconds, most recent first *)
  mutable n : int;
  mutable sum : float;
}

let recorder () = { samples = []; n = 0; sum = 0.0 }

let add r dt =
  r.samples <- dt :: r.samples;
  r.n <- r.n + 1;
  r.sum <- r.sum +. dt

(** [percentile r p]: the [p]-th percentile (0..100, nearest-rank) of
    the recorded samples; 0 when empty. *)
let percentile r p =
  match r.samples with
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let rank = Float.to_int (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let mean r = if r.n = 0 then 0.0 else r.sum /. float_of_int r.n

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)

type session = {
  ss_id : int;
  mutable ss_requests : int;
  mutable ss_errors : int;      (** malformed / failed requests (contained) *)
  mutable ss_incidents : int;   (** contained pass faults across compiles *)
  mutable ss_shared_hits : int;
  mutable ss_shared_lookups : int;
  mutable ss_tracked_hits : int;
  mutable ss_tracked_lookups : int;
  ss_lat : recorder;
}

let session id =
  { ss_id = id; ss_requests = 0; ss_errors = 0; ss_incidents = 0;
    ss_shared_hits = 0; ss_shared_lookups = 0; ss_tracked_hits = 0;
    ss_tracked_lookups = 0; ss_lat = recorder () }

type server = {
  sv_started : float;  (** Unix.gettimeofday at daemon start *)
  mutable sv_sessions : int;  (** sessions ever accepted *)
  mutable sv_requests : int;
  mutable sv_errors : int;
  mutable sv_incidents : int;
  (* self-protection telemetry (PR 7): every shed, eviction, protocol
     rejection and store flush is counted so overload behaviour is
     observable, not inferred *)
  mutable sv_shed : int;          (** connections refused with [Busy] at the cap *)
  mutable sv_evicted_slow : int;  (** sessions dropped for an overfull write queue *)
  mutable sv_evicted_idle : int;  (** sessions dropped by the idle timeout *)
  mutable sv_rejects : int;       (** protocol violations answered [Rejected] *)
  mutable sv_flushes : int;       (** periodic store flushes performed *)
  mutable sv_max_pending : int;   (** high-water mark of queued response bytes *)
  sv_lat : recorder;
}

let server ~now = { sv_started = now; sv_sessions = 0; sv_requests = 0;
                    sv_errors = 0; sv_incidents = 0; sv_shed = 0;
                    sv_evicted_slow = 0; sv_evicted_idle = 0; sv_rejects = 0;
                    sv_flushes = 0; sv_max_pending = 0; sv_lat = recorder () }

let rate_of hits lookups =
  if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                      *)

open Valid.Trace

let session_json (s : session) =
  Json.obj
    [ ("session", Json.int s.ss_id);
      ("requests", Json.int s.ss_requests);
      ("errors", Json.int s.ss_errors);
      ("incidents", Json.int s.ss_incidents);
      ("shared_hits", Json.int s.ss_shared_hits);
      ("shared_lookups", Json.int s.ss_shared_lookups);
      ("shared_hit_rate", Json.float (rate_of s.ss_shared_hits s.ss_shared_lookups));
      ("tracked_hit_rate", Json.float (rate_of s.ss_tracked_hits s.ss_tracked_lookups));
      ("p50_ms", Json.float (1000.0 *. percentile s.ss_lat 50.0));
      ("p95_ms", Json.float (1000.0 *. percentile s.ss_lat 95.0));
      ("mean_ms", Json.float (1000.0 *. mean s.ss_lat)) ]

(** The [Stats] reply and the shutdown log line: server totals,
    throughput, latency percentiles, per-session summaries, the reply
    memo's counters ([memo]: hits, misses, entries, bytes), and the
    persistent store's counters when one is attached. *)
let server_json ~now (sv : server) (sessions : session list) ~memo
    (store_json : string option) =
  let uptime = now -. sv.sv_started in
  Json.obj
    ([ ("uptime_s", Json.float uptime);
       ("sessions", Json.int sv.sv_sessions);
       ("requests", Json.int sv.sv_requests);
       ("errors", Json.int sv.sv_errors);
       ("incidents", Json.int sv.sv_incidents);
       ("shed", Json.int sv.sv_shed);
       ("evicted_slow", Json.int sv.sv_evicted_slow);
       ("evicted_idle", Json.int sv.sv_evicted_idle);
       ("rejects", Json.int sv.sv_rejects);
       ("flushes", Json.int sv.sv_flushes);
       ("max_pending_bytes", Json.int sv.sv_max_pending);
       ( "req_per_s",
         Json.float
           (if uptime <= 0.0 then 0.0 else float_of_int sv.sv_requests /. uptime) );
       ("p50_ms", Json.float (1000.0 *. percentile sv.sv_lat 50.0));
       ("p95_ms", Json.float (1000.0 *. percentile sv.sv_lat 95.0));
       ("mean_ms", Json.float (1000.0 *. mean sv.sv_lat));
       ( "per_session",
         Json.arr (List.map session_json (List.sort (fun a b -> compare a.ss_id b.ss_id) sessions)) ) ]
    @ (match store_json with None -> [] | Some j -> [ ("store", j) ])
    @ [ ("memo", memo) ])
