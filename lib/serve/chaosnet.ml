(** Seeded network-fault injection for the compile daemon — the
    transport-level sibling of {!Valid.Chaos} (which injects {e pass}
    faults).

    A chaos transport wraps a client connection's reads and writes
    (the {!Client.io} seam) and perturbs them with every failure mode a
    unix-domain socket can realistically present, drawn from a
    {!Util.Prng} stream so each run is reproducible bit-for-bit from
    its seed:

    - {b byte flips} — one bit of one in-flight byte is inverted.  The
      FNV-1a frame checksum ({!Protocol.frame}) turns every flip into a
      detected [Malformed]: the daemon answers [Rejected] and closes
      the guilty session; the client drops the connection and retries.
      A flip can never be silently compiled or silently accepted.
    - {b torn writes / short reads} — frames split at arbitrary byte
      boundaries, exercising both sides' carry-over buffering.
      Tearing is loss-free, so it must be invisible in the results.
    - {b delays} — sub-frame stalls (≤ 2 ms) between chunks, jittering
      the interleaving the daemon's select loop observes.
    - {b mid-frame disconnects} — the connection is shut down partway
      through a write or instead of a read ([EPIPE]/[ECONNRESET]).
      The daemon contains the orphaned session; the client's next
      operation fails transiently and a fresh connection retries.
      A drop shuts the socket down but leaves the descriptor open: its
      owner ({!Client.close}) does the only close, so a second close
      can never hit a number the process has since reused for another
      connection.

    {!run_sweep} is the chaos tests' convergence harness: against a
    live daemon it compiles a fixed
    source set through [n] differently-seeded chaos transports with
    {!Client.compile_retry}, and checks every result that converged is
    {e byte-identical} to the from-scratch expectation — chaos may cost
    retries, never correctness. *)

type t = {
  prng : Util.Prng.t;
  p_flip : float;   (** per-operation probability of a bit flip *)
  p_drop : float;   (** per-operation probability of a disconnect *)
  p_tear : float;   (** per-write probability of tearing the frame *)
  p_delay : float;  (** per-operation probability of a small stall *)
  (* observability: what the seed actually did *)
  mutable n_flips : int;
  mutable n_drops : int;
  mutable n_tears : int;
  mutable n_delays : int;
}

let create ?(p_flip = 0.12) ?(p_drop = 0.08) ?(p_tear = 0.5)
    ?(p_delay = 0.3) (seed : int) : t =
  { prng = Util.Prng.create seed; p_flip; p_drop; p_tear; p_delay;
    n_flips = 0; n_drops = 0; n_tears = 0; n_delays = 0 }

let hit t p = Util.Prng.float t.prng < p

let maybe_delay t =
  if hit t t.p_delay then begin
    t.n_delays <- t.n_delays + 1;
    Unix.sleepf (0.002 *. Util.Prng.float t.prng)
  end

(* flip one random bit of [b.(off..off+len)] *)
let flip_in t b off len =
  if len > 0 then begin
    t.n_flips <- t.n_flips + 1;
    let i = off + Util.Prng.int t.prng len in
    Bytes.set b i
      (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Util.Prng.int t.prng 8)))
  end

let drop t fd err =
  t.n_drops <- t.n_drops + 1;
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  raise (Unix.Unix_error (err, "chaosnet", ""))

(* ------------------------------------------------------------------ *)
(* The faulty transport                                                *)

let chaos_send t fd (wire : string) =
  maybe_delay t;
  let b = Bytes.of_string wire in
  if hit t t.p_flip then flip_in t b 0 (Bytes.length b);
  let n = Bytes.length b in
  (* a drop mid-frame leaves the daemon holding a torn prefix *)
  let cut = if hit t t.p_drop then Util.Prng.int t.prng (n + 1) else n in
  let chunks =
    if hit t t.p_tear && n > 1 then Util.Prng.range t.prng 2 4 else 1
  in
  if chunks > 1 then t.n_tears <- t.n_tears + 1;
  let off = ref 0 in
  let write_upto stop =
    while !off < stop do
      let k = Unix.write fd b !off (stop - !off) in
      if k = 0 then raise (Protocol.Malformed "connection closed mid-write");
      off := !off + k
    done
  in
  let limit = min cut n in
  for c = 1 to chunks do
    let stop =
      if c = chunks then limit
      else min limit (!off + 1 + Util.Prng.int t.prng (max 1 (n / chunks)))
    in
    write_upto stop;
    if c < chunks then maybe_delay t
  done;
  if cut < n then drop t fd Unix.EPIPE

let chaos_read t fd buf off len =
  maybe_delay t;
  if hit t t.p_drop then drop t fd Unix.ECONNRESET;
  (* short reads: take a small bite, let the carry-over buffer work *)
  let len =
    if hit t t.p_tear && len > 1 then begin
      t.n_tears <- t.n_tears + 1;
      1 + Util.Prng.int t.prng (min len 7)
    end
    else len
  in
  let k = Unix.read fd buf off len in
  if k > 0 && hit t t.p_flip then flip_in t buf off k;
  k

(** The fault-injecting {!Client.io}: hand it to {!Client.connect} or
    {!Client.compile_retry} to run a session over a hostile network. *)
let io (t : t) : Client.io =
  { Client.io_send = chaos_send t; io_read = chaos_read t }

(* ------------------------------------------------------------------ *)
(* The convergence sweep                                               *)

type sweep = {
  sw_seeds : int;          (** chaos sessions run *)
  sw_compiles : int;       (** compile requests attempted across them *)
  sw_converged : int;      (** results byte-identical to the expectation *)
  sw_mismatched : int;     (** converged to the {e wrong} bytes (must be 0) *)
  sw_gave_up : int;        (** retries exhausted (tolerated, counted) *)
  sw_flips : int;
  sw_drops : int;
  sw_tears : int;
  sw_delays : int;
}

(** [run_sweep ~socket ~expected sources]: one chaos session per seed
    in [first_seed .. first_seed + seeds - 1] against the live daemon
    at [socket], each compiling every [(label, source)] through its own
    seeded transport with [retries] and [deadline_s].  [expected] maps
    each label to the byte-exact output a clean compile produces (see
    {!expected_outputs}).  Convergence failures are never silent:
    a result that differs from the expectation counts [sw_mismatched]
    — the one outcome chaos must never produce. *)
let run_sweep ?(first_seed = 1) ?(seeds = 100) ?(retries = 16)
    ?(deadline_s = 30.0) ~socket ~(expected : (string * string) list)
    (sources : (string * string) list) : sweep =
  let sw =
    ref
      { sw_seeds = 0; sw_compiles = 0; sw_converged = 0; sw_mismatched = 0;
        sw_gave_up = 0; sw_flips = 0; sw_drops = 0; sw_tears = 0;
        sw_delays = 0 }
  in
  for seed = first_seed to first_seed + seeds - 1 do
    let chaos = create seed in
    List.iter
      (fun (label, source) ->
        let r =
          Client.compile_retry ~retries ~deadline_s ~io:(io chaos) ~socket
            ~label source
        in
        let s = !sw in
        let s = { s with sw_compiles = s.sw_compiles + 1 } in
        sw :=
          (match r with
          | Ok reply ->
            let want = List.assoc_opt label expected in
            if want = Some reply.Protocol.co_output then
              { s with sw_converged = s.sw_converged + 1 }
            else { s with sw_mismatched = s.sw_mismatched + 1 }
          | Error _ -> { s with sw_gave_up = s.sw_gave_up + 1 }))
      sources;
    sw :=
      { !sw with
        sw_seeds = !sw.sw_seeds + 1;
        sw_flips = !sw.sw_flips + chaos.n_flips;
        sw_drops = !sw.sw_drops + chaos.n_drops;
        sw_tears = !sw.sw_tears + chaos.n_tears;
        sw_delays = !sw.sw_delays + chaos.n_delays }
  done;
  !sw

(** The clean-compile expectations for {!run_sweep}: each source
    compiled from scratch, in-process.  Call {e before} starting (or
    while not racing) a daemon in the same process — the from-scratch
    compile clears the shared analysis caches. *)
let expected_outputs (config : Core.Config.t)
    (sources : (string * string) list) : (string * string) list =
  List.map
    (fun (label, source) ->
      let r = Core.Incremental.scratch config source in
      (label, r.Core.Incremental.outcome.Core.Incremental.oc_output))
    sources
