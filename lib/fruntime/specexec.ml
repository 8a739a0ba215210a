(** Real LRPD speculation backend for {!Machine.Parexec}.

    [Parexec] owns the execution mechanics of a speculative region —
    checkpointing written arrays, forking the iteration space, rolling
    back with {!Machine.Storage.restore} and re-running sequentially on
    failure — but is deliberately ignorant of how accesses are judged
    (the [machine] library cannot depend on [fruntime]).  This module
    supplies that judgement: one private {!Shadow} per (tested array ×
    domain), marked concurrently without any synchronization, then
    merged with {!Shadow.merge_into} at the join and rendered into a
    verdict with the same {!Shadow.verdict_of_analysis} the modeled
    lane uses.  A region creates its shadows once; the verdict clears
    them for the region's next execution.  A loop is committed only on
    a plain [Parallel] verdict: [Parallel_privatized] means the
    as-executed in-place writes had output dependences, so the results
    are discarded exactly like a failure. *)

let backend : Machine.Parexec.spec_backend =
  { Machine.Parexec.sb_make =
      (fun ~size ~domains ->
        let shadows = Array.init domains (fun _ -> Shadow.create size) in
        let merged = Shadow.create size in
        let markers =
          Array.map
            (fun s ->
              { Machine.Parexec.s_read = Shadow.read s;
                s_write = Shadow.write s;
                s_iter_begin = (fun () -> Shadow.begin_iteration s) })
            shadows
        in
        let verdict () =
          Array.iter (fun s -> Shadow.merge_into merged s) shadows;
          let v =
            match Shadow.verdict merged with
            | Shadow.Parallel -> Machine.Parexec.Spec_parallel
            | Shadow.Parallel_privatized -> Machine.Parexec.Spec_privatize
            | Shadow.Not_parallel -> Machine.Parexec.Spec_fail
          in
          Shadow.clear merged;
          Array.iter Shadow.clear shadows;
          v
        in
        { Machine.Parexec.sh_marker = Array.get markers; sh_verdict = verdict }) }
