(** A stdlib-only domain pool for multicore compilation and execution
    (OCaml 5 domains, chunks claimed from one atomic cursor per batch —
    no Domainslib).

    Design constraints, in priority order:

    1. {b Determinism.}  [map f xs] must be observably identical to
       [List.map f xs]: results are merged back in list (= program)
       order, and when tasks raise, the exception of the {e earliest}
       item re-raises after every task has finished — callers see the
       exact serial prefix semantics (everything before the faulting
       item completed, nothing after it is observed).  Which domain
       runs a chunk, and when, is free; the merge order is fixed.
    2. {b Default off.}  The job count defaults to 1 ([POLARIS_JOBS] or
       [polaris -j N] raise it); at 1 job [map] {e is} [List.map] — no
       domains, no batch, byte-identical to the serial compiler.
    3. {b Cache safety.}  Each task runs with a {!slot} id in
       domain-local storage; the memo tables ({!Symbolic.Cache}) use it
       to route in-phase misses to per-slot shard tables while treating
       the shared store as read-only.  After every fanned-out [map] the
       pool calls {!Cachectl.merge_shards} (on the submitting domain,
       with all workers idle), so shards drain into the shared store at
       a sequential point.

    {b Scheduling.}  The compiler's (unit, nest) tasks are too small to
    pay one condition-variable handshake each, so the pool {e batches}:
    a cost-model batcher coalesces elements into contiguous index
    chunks (caller-supplied [?weight] balances them) and the workers
    are woken {e once} per batch, not once per task.  Every slot then
    claims chunks from the batch's one atomic cursor until it passes
    the last chunk.  Batches that collapse to a single chunk run inline
    on the submitter — no wake-up at all.

    The submitting domain participates in the batch (as slot 0), so
    [-j N] means N domains doing work, not N+1.  The compiler's batches
    take their slot count from [-j]; [Machine.Parexec]'s parallel
    regions pass the execution's processor count instead, so compile
    phases and runtime regions share one set of domains.  Nested
    submission ([map] from inside a task) is a programming error and
    raises {!Nested_submit}: worker domains must never block on work
    only they could execute. *)

(* ------------------------------------------------------------------ *)
(* Job count                                                           *)

(** Hard ceiling on the job count (and the size of per-slot cache shard
    arrays: slot 0 is the submitting domain, 1..max_jobs-1 the
    workers). *)
let max_jobs = Env.max_jobs

let clamp n = if n < 1 then 1 else if n > max_jobs then max_jobs else n

(* POLARIS_JOBS is parsed (with validation) in {!Env}, the single parse
   site for environment knobs.  The job count is atomic because a daemon
   started on its own domain (as the serve tests do) sets it while
   other domains may read it. *)
let jobs_default = Atomic.make Env.jobs

(** Current job count (>= 1). *)
let jobs () = Atomic.get jobs_default

(** Set the process-wide job count (clamped to [1 .. max_jobs]);
    [polaris -j N]. *)
let set_jobs n = Atomic.set jobs_default (clamp n)

(** [with_jobs n f]: run [f ()] with the process-wide job count forced
    to [n], restoring the previous value on exit (including
    exceptions). *)
let with_jobs n f =
  let saved = Atomic.get jobs_default in
  set_jobs n;
  Fun.protect ~finally:(fun () -> Atomic.set jobs_default saved) f

(* ------------------------------------------------------------------ *)
(* Task identity (domain-local)                                        *)

(* [Some i] while the domain runs tasks of a batch as cache shard slot
   i: i = 0 on the submitting domain, i >= 1 on pool workers (which
   exist only to run tasks).  The cache layer keys its per-slot shard
   tables on this. *)
let slot_key : int option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(** Shard slot of the current domain ([None] outside tasks). *)
let slot () = !(Domain.DLS.get slot_key)

(** True while executing inside a pool task. *)
let in_task () = slot () <> None

exception Nested_submit
(** Raised by {!map} when called from inside a pool task. *)

(* ------------------------------------------------------------------ *)
(* Scheduler telemetry                                                 *)

(** Cumulative scheduler counters since process start: fanned-out
    batches, inline (single-chunk) batches, tasks executed and chunks
    executed.  [c_steals] is always 0 — no slot takes work from
    another, every chunk is claimed from the batch's cursor — and stays
    only because the wall-clock benchmark's [pool.steals] row reads
    it. *)
type counters = {
  c_batches : int;
  c_inline : int;
  c_tasks : int;
  c_chunks : int;
  c_steals : int;
}

let batches_n = Atomic.make 0
let inline_n = Atomic.make 0
let tasks_n = Atomic.make 0
let chunks_n = Atomic.make 0

let counters () =
  { c_batches = Atomic.get batches_n; c_inline = Atomic.get inline_n;
    c_tasks = Atomic.get tasks_n; c_chunks = Atomic.get chunks_n;
    c_steals = 0 }

let counters_delta ~(base : counters) (now : counters) : counters =
  { c_batches = now.c_batches - base.c_batches;
    c_inline = now.c_inline - base.c_inline;
    c_tasks = now.c_tasks - base.c_tasks;
    c_chunks = now.c_chunks - base.c_chunks;
    c_steals = 0 }

(* ------------------------------------------------------------------ *)
(* Batch plan                                                          *)

(* how many chunks the batcher aims to cut per slot: enough that a
   slot finishing early claims another chunk instead of idling behind
   one long one, few enough that per-chunk costs stay amortized *)
let chunks_per_slot = 4

(* [plan ?weight k n]: cut [0..k-1] into contiguous chunks as (lo, hi)
   pairs, in index order.  The batcher targets [n * chunks_per_slot]
   chunks, packing by the caller's weight estimate when one is given so
   heavy items don't pile into one chunk; an unweighted batch of at
   most [n * chunks_per_slot] items is cut one item per chunk.  Pure
   arithmetic on the input list: identical at every job count that
   reaches it. *)
let plan ?weight (k : int) (n : int) : (int * int) list =
  let cut size =
    let rec go lo acc =
      if lo >= k then List.rev acc
      else
        let hi = min k (lo + size) in
        go hi ((lo, hi) :: acc)
    in
    go 0 []
  in
  let target_chunks = n * chunks_per_slot in
  match weight with
  | None -> cut (max 1 ((k + target_chunks - 1) / target_chunks))
  | Some w ->
    let weights = Array.init k (fun i -> max 1 (w i)) in
    let total = Array.fold_left ( + ) 0 weights in
    let per_chunk = max 1 ((total + target_chunks - 1) / target_chunks) in
    let acc = ref [] and lo = ref 0 and seen = ref 0 in
    for i = 0 to k - 1 do
      seen := !seen + weights.(i);
      if !seen >= per_chunk || i = k - 1 then begin
        acc := (!lo, i + 1) :: !acc;
        lo := i + 1;
        seen := 0
      end
    done;
    List.rev !acc

(* ------------------------------------------------------------------ *)
(* The pool                                                            *)

(* One batch = one [map] fan-out: the plan's chunks, the cursor every
   slot claims the next chunk from, a shared [run] closure indexing the
   hidden items/results arrays, and an atomic count of unfinished items
   for completion detection. *)
type batch = {
  b_run : int -> unit;          (* run item [idx], record its result *)
  b_chunks : (int * int) array; (* the plan, in index order *)
  b_next : int Atomic.t;        (* next chunk to claim *)
  b_remaining : int Atomic.t;   (* items not yet finished *)
}

type pool = {
  m : Mutex.t;                 (* guards batch publication and [stop] *)
  work_cv : Condition.t;       (* workers: a new batch (or stop) *)
  done_cv : Condition.t;       (* submitter: the batch completed *)
  mutable current : batch option;
  mutable generation : int;    (* bumped once per published batch *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  size : int;                  (* worker domains (excluding the submitter) *)
}

let the_pool : pool option ref = ref None

(* claim chunks from the cursor and run them until it passes the last
   one.  All chunks exist before the batch is published, so a claim
   past the end is final for this slot — it parks with no spinning.
   Whoever finishes the last item retires the batch and signals the
   submitter: one condition-variable transaction per batch, not per
   task. *)
let work_batch (pool : pool) (b : batch) =
  let nchunks = Array.length b.b_chunks in
  let rec loop () =
    let ci = Atomic.fetch_and_add b.b_next 1 in
    if ci < nchunks then begin
      let lo, hi = b.b_chunks.(ci) in
      Atomic.incr chunks_n;
      for idx = lo to hi - 1 do
        b.b_run idx
      done;
      ignore (Atomic.fetch_and_add tasks_n (hi - lo));
      if Atomic.fetch_and_add b.b_remaining (lo - hi) = hi - lo then begin
        (* this chunk finished the batch *)
        Mutex.lock pool.m;
        pool.current <- None;
        Condition.signal pool.done_cv;
        Mutex.unlock pool.m
      end;
      loop ()
    end
  in
  loop ()

let worker_body pool i () =
  (* workers exist only to run tasks: pin the slot once *)
  Domain.DLS.set slot_key (ref (Some i));
  let seen = ref 0 in
  Mutex.lock pool.m;
  let rec loop () =
    if pool.stop then Mutex.unlock pool.m
    else
      match pool.current with
      | Some b when !seen <> pool.generation ->
        seen := pool.generation;
        Mutex.unlock pool.m;
        work_batch pool b;
        Mutex.lock pool.m;
        loop ()
      | _ ->
        Condition.wait pool.work_cv pool.m;
        loop ()
  in
  loop ()

let create size =
  let pool =
    { m = Mutex.create (); work_cv = Condition.create ();
      done_cv = Condition.create (); current = None; generation = 0;
      stop = false; domains = []; size }
  in
  pool.domains <-
    List.init size (fun i -> Domain.spawn (worker_body pool (i + 1)));
  the_pool := Some pool;
  pool

(** Stop and join the worker domains (idempotent).  The next parallel
    {!map} transparently respawns them; registered with [at_exit] so a
    process never hangs on sleeping workers. *)
let shutdown () =
  match !the_pool with
  | None -> ()
  | Some pool ->
    Mutex.lock pool.m;
    pool.stop <- true;
    Condition.broadcast pool.work_cv;
    Mutex.unlock pool.m;
    List.iter Domain.join pool.domains;
    the_pool := None

let () = at_exit shutdown

let get_pool size =
  match !the_pool with
  | Some p when p.size = size && not p.stop -> p
  | Some _ ->
    shutdown ();
    create size
  | None -> create size

(* ------------------------------------------------------------------ *)
(* Deterministic parallel map                                          *)

type 'a task_result =
  | Ok_ of 'a
  | Err of exn * Printexc.raw_backtrace

(** [map ?slots ?weight f xs]: apply [f] to every element of [xs],
    results in input order.  [slots] is the number of domains that work
    on the batch, the caller's included (default {!jobs}, clamped to
    [1 .. max_jobs]); at one slot [map] {e is} [List.map f xs].
    Otherwise the batcher cuts the elements into contiguous chunks —
    balanced by [?weight]'s relative cost estimate when given — and the
    slots' domains claim them one at a time from the batch's cursor
    until none is left.  A plan of one chunk short-circuits to the
    serial path: small batches never pay the wake-up.  The pool's
    worker domains are kept between batches and respawned only when
    the slot count changes.  Once every task has finished, cache shards
    are merged back into the shared stores and either the ordered
    results are returned or, if any task raised, the exception of the
    {e earliest} failed element re-raises (with its backtrace) — the
    serial prefix semantics. *)
let map ?slots ?(weight : ('a -> int) option) (f : 'a -> 'b) (xs : 'a list) :
    'b list =
  if in_task () then raise Nested_submit;
  let n = match slots with Some s -> clamp s | None -> jobs () in
  if n <= 1 then List.map f xs
  else
    match xs with
    | [] -> []
    | xs ->
      let items = Array.of_list xs in
      let k = Array.length items in
      let chunks =
        plan ?weight:(Option.map (fun w i -> w items.(i)) weight) k n
      in
      (match chunks with
      | [] | [ _ ] ->
        (* one chunk: the whole batch would run on one domain anyway —
           run it here without waking anybody (and without a slot, the
           exact jobs = 1 path) *)
        Atomic.incr inline_n;
        List.map f xs
      | chunks ->
        Atomic.incr batches_n;
        let pool = get_pool (n - 1) in
        let results : 'b task_result option array = Array.make k None in
        let b_run idx =
          results.(idx) <-
            Some
              (match f items.(idx) with
              | v -> Ok_ v
              | exception e -> Err (e, Printexc.get_raw_backtrace ()))
        in
        let b =
          { b_run; b_chunks = Array.of_list chunks; b_next = Atomic.make 0;
            b_remaining = Atomic.make k }
        in
        Mutex.lock pool.m;
        pool.current <- Some b;
        pool.generation <- pool.generation + 1;
        Condition.broadcast pool.work_cv;
        Mutex.unlock pool.m;
        (* participate as slot 0, then wait for the stragglers *)
        let my_slot = Domain.DLS.get slot_key in
        my_slot := Some 0;
        Fun.protect
          ~finally:(fun () -> my_slot := None)
          (fun () -> work_batch pool b);
        Mutex.lock pool.m;
        while Atomic.get b.b_remaining > 0 do
          Condition.wait pool.done_cv pool.m
        done;
        (* the finisher retired the batch; never let it leak into the
           next generation check *)
        (match pool.current with
        | Some cur when cur == b -> pool.current <- None
        | _ -> ());
        Mutex.unlock pool.m;
        (* all tasks finished and all workers are idle: a sequential
           point — drain the per-slot cache shards into the shared
           stores before anyone consumes the results *)
        Cachectl.merge_shards ();
        (* earliest failure wins: the serial compiler would have raised
           at the first failing element and never evaluated the rest *)
        let first_err = ref None in
        Array.iter
          (fun r ->
            match (r, !first_err) with
            | Some (Err (e, bt)), None -> first_err := Some (e, bt)
            | _ -> ())
          results;
        (match !first_err with
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ());
        Array.to_list
          (Array.map
             (function Some (Ok_ v) -> v | _ -> assert false)
             results))
