(* A persistent pool of worker domains fed through one claim cursor per
   job. A job is an array of tasks; every worker (the coordinator is
   worker 0) claims the next index with [Atomic.fetch_and_add] on the
   job's cursor until it passes the end. The cursor only moves forward,
   so "the cursor is past the end" is a stable exit condition and no
   index is ever left behind. Results live in per-index slots, which
   fixes the merge order once and for all — the caller's task order —
   independently of which domain claimed what.

   Degraded-mode hardening: per-index slots hold [Ok]/[Error] results, a
   task exception never poisons the batch (all failures are aggregated
   into [Task_errors] with their backtraces after one inline retry), a
   worker that dies mid-job (fault injection's [`Die] fate) leaves its
   single claimed index to the coordinator's rescue pass — the rest of
   the batch is claimed by the surviving workers — and guard
   cancellation stops workers from claiming further tasks: the
   coordinator alone finishes the job, with guard-aware task bodies
   early-exiting at their own checkpoints. *)

exception
  Task_errors of (int * exn * Printexc.raw_backtrace) list
    (* (task index, exception, backtrace), sorted by index; every entry
       failed twice: once in its claiming domain and once in the
       coordinator's inline retry *)

let () =
  Printexc.register_printer (function
    | Task_errors errors ->
        Some
          (Printf.sprintf "Pool.Task_errors [%s]"
             (String.concat "; "
                (List.map
                   (fun (i, e, _) ->
                     Printf.sprintf "task %d: %s" i (Printexc.to_string e))
                   errors)))
    | _ -> None)

type job = {
  run : int -> fate:[ `Run | `Raise of int ] -> unit;
      (* execute task [i] (or record its injected failure); never raises *)
  n : int;
  next : int Atomic.t;
      (* the next unclaimed index; claims past [n] are harmless (the
         claimer just stops), so no synchronization beyond the single
         fetch-and-add is needed *)
  cancelled : unit -> bool;  (* workers stop claiming once true *)
  mutable completed : int;  (* tasks finished; protected by the pool mutex *)
  mutable orphans : int list;
      (* indices claimed and then abandoned by a dying worker, awaiting
         the coordinator's rescue pass; protected by the pool mutex *)
}

type t = {
  size : int;
  eff : int;
      (* effective parallelism: [min size (recommended_domain_count ())].
         A pool oversubscribing a small machine can still *run* wide jobs
         correctly, but fanning out cannot make them faster — the cost
         gate treats [eff = 1] as "never fan out". *)
  mutex : Mutex.t;
  work : Condition.t;  (* workers: a new job was posted *)
  finished : Condition.t;  (* coordinator: progress on the job *)
  mutable job : job option;
  mutable generation : int;  (* bumped per job; workers join each job once *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  busy : float array;
      (* cumulative busy seconds per worker; protected by the mutex *)
  mutable dispatch_overhead_s : float;
      (* measured fixed cost of one fan-out (post + wake + handshake);
         the cost gate's unit of account *)
}

let now () = Unix.gettimeofday ()

(* Claim and run tasks until the cursor passes the end, the guard is
   cancelled (workers only — the coordinator must keep going so the job
   always completes), or the fault schedule kills this worker. The
   completion count (not a per-worker barrier) is what the coordinator
   waits on, so it never matters which workers ever woke up for a given
   job; a dying worker hands its claimed index over as an orphan and the
   others claim the rest. *)
let drain pool job worker =
  let t0 = now () in
  let rec loop done_count =
    if worker > 0 && job.cancelled () then (done_count, None)
    else
      let i = Atomic.fetch_and_add job.next 1 in
      if i >= job.n then (done_count, None)
      else
        match Guard.Faults.claim_fate ~worker with
        | `Die -> (done_count, Some i)
        | (`Run | `Raise _) as fate ->
            job.run i ~fate;
            loop (done_count + 1)
  in
  let did, orphan = loop 0 in
  let dt = now () -. t0 in
  Mutex.lock pool.mutex;
  pool.busy.(worker) <- pool.busy.(worker) +. dt;
  job.completed <- job.completed + did;
  (match orphan with
  | Some i -> job.orphans <- i :: job.orphans
  | None -> ());
  (* Wake the coordinator on any exit: completion, cancellation bail-out,
     or death — it re-evaluates and rescues orphans as needed. *)
  Condition.broadcast pool.finished;
  Mutex.unlock pool.mutex

let worker_loop pool worker =
  let last_generation = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.mutex;
    while
      (not pool.stop)
      && (pool.job = None || pool.generation = !last_generation)
    do
      Condition.wait pool.work pool.mutex
    done;
    if pool.stop then begin
      Mutex.unlock pool.mutex;
      running := false
    end
    else begin
      let job = Option.get pool.job in
      last_generation := pool.generation;
      Mutex.unlock pool.mutex;
      drain pool job worker
    end
  done

(* A conservative stand-in until (and unless) the dispatch
   microbenchmark runs: about what a cross-domain dispatch costs on a
   mainstream machine. Used as-is when measurement is skipped (size-1
   pools; fault-injection runs, where the measurement's task claims
   would shift the deterministic fault schedule). *)
let default_overhead_s = 1e-4

(* The dispatch-overhead microbenchmark, installed after [run_all] is
   defined (it fans a calibration batch out through it). *)
let calibrator : (t -> float) ref = ref (fun _ -> default_overhead_s)

(* Workers are spawned on the first batch that actually fans out, not
   at pool creation: a pool whose cost gate keeps every batch inline —
   notably any pool on a single-core container, where [eff = 1] — then
   never spawns a domain at all, so the program never pays the
   stop-the-world minor-GC rendezvous that even sleeping domains add to
   every collection (measured at ~10% wall clock on allocation-heavy
   workloads). The overhead calibration moves with the spawn: it is
   meaningless until there are workers to dispatch to, and the gate
   decision that triggered this fan-out has already been taken on the
   conservative default. Double-checked under the pool mutex so
   concurrent first fan-outs spawn exactly once. *)
let ensure_workers pool =
  if pool.size > 1 && pool.domains = [] then begin
    Mutex.lock pool.mutex;
    let spawn = pool.domains = [] && not pool.stop in
    if spawn then
      pool.domains <-
        List.init (pool.size - 1) (fun k ->
            Domain.spawn (fun () -> worker_loop pool (k + 1)));
    Mutex.unlock pool.mutex;
    if spawn && not (Guard.Faults.active ()) then
      pool.dispatch_overhead_s <- !calibrator pool
  end

let create requested =
  let size = max 1 requested in
  {
    size;
    eff = min size (Domain.recommended_domain_count ());
    mutex = Mutex.create ();
    work = Condition.create ();
    finished = Condition.create ();
    job = None;
    generation = 0;
    stop = false;
    domains = [];
    busy = Array.make size 0.;
    dispatch_overhead_s = default_overhead_s;
  }

let size pool = pool.size

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.domains;
  pool.domains <- []

(* Execute task [i] into its slot, catching everything: a real task
   exception and an injected one both land as [Error] — the caller
   retries those inline before giving up on them. *)
let exec_into (type a b) (f : a -> b) (tasks : a array)
    (slots : (b, exn * Printexc.raw_backtrace) result option array) i
    ~fate =
  match fate with
  | `Raise claim ->
      slots.(i) <-
        Some
          (Error
             ( Guard.Faults.Injected_fault claim,
               Printexc.get_callstack 16 ))
  | `Run -> (
      match f tasks.(i) with
      | r -> slots.(i) <- Some (Ok r)
      | exception e ->
          slots.(i) <- Some (Error (e, Printexc.get_raw_backtrace ())))

(* ------------------------------------------------------------------ *)
(* Cost gate                                                           *)
(* ------------------------------------------------------------------ *)

(* Fanning a batch out costs a fixed dispatch overhead (posting the job,
   waking the workers, the completion handshake) regardless of how much
   work the batch holds. A chase sweep can be worth a few microseconds
   (an early stage, a small instance), where that overhead dominates by
   orders of magnitude: before the gate, fine-grained fan-outs ran at
   0.02x-0.14x of sequential under -j4 on one core. The gate routes
   such batches inline and reserves fan-out for batches
   whose measured (or caller-estimated) work clears a multiple of the
   pool's own dispatch overhead:

   - effective parallelism 1 (size-1 pool, or any pool on a one-core
     box): always inline — fan-out cannot win;
   - caller passed [~est_s]: compare the estimate against the gate
     threshold directly;
   - otherwise, *probe*: run tasks inline until the gate threshold of
     wall time has been spent, then fan out the remainder iff its
     extrapolated cost clears the threshold too.

   The gate changes scheduling only, never results: every client
   already requires cross-[-j] determinism, and inline execution is the
   size-1 code path those contracts are stated against. The pool tests
   reach the fan-out and dead-worker paths on one core through
   [Internal.map_array_fanout], which bypasses the gate for its own batch
   only. *)

(* Threshold, as a multiple of the measured dispatch overhead: a batch
   has to be worth several dispatches before the pool pays for one. *)
let gate_factor = 5.

type gate_counters = { inline_batches : int; fanout_batches : int }

let g_inline = Atomic.make 0
let g_fanout = Atomic.make 0

let gate_counters () =
  {
    inline_batches = Atomic.get g_inline;
    fanout_batches = Atomic.get g_fanout;
  }

let dispatch_overhead_s pool = pool.dispatch_overhead_s

(* The degraded-mode core: run every task, rescue orphans inline, retry
   failed slots once (transient/injected failures recover; deterministic
   ones stay [Error]). Always returns a fully populated slot per index.
   [est_s] is the
   caller's estimate of the whole batch's sequential cost, consumed by
   the cost gate; [force_fanout] bypasses the gate (the creation-time
   overhead measurement must go through the real dispatch path). *)
let run_all (type a b) ?guard ?est_s ?(force_fanout = false)
    pool (f : a -> b) (tasks : a array) :
    (b, exn * Printexc.raw_backtrace) result array =
  let n = Array.length tasks in
  let slots : (b, exn * Printexc.raw_backtrace) result option array =
    Array.make n None
  in
  let exec = exec_into f tasks slots in
  (* Inline execution of one index: the coordinator is the only worker,
     so injected worker death degrades to a no-op and cancellation is
     handled inside the (guard-aware) task bodies. *)
  let run_one i =
    match Guard.Faults.claim_fate ~worker:0 with
    | (`Run | `Raise _) as fate -> exec i ~fate
    | `Die -> exec i ~fate:`Run (* the coordinator never dies *)
  in
  let run_inline lo =
    let t0 = now () in
    for i = lo to n - 1 do
      run_one i
    done;
    let dt = now () -. t0 in
    Mutex.lock pool.mutex;
    pool.busy.(0) <- pool.busy.(0) +. dt;
    Mutex.unlock pool.mutex
  in
  (* Fan indices [lo, n) out to the workers (the coordinator drains as
     worker 0). The job speaks batch-relative indices. *)
  let fan_out lo =
    ensure_workers pool;
    let job =
      {
        run = (fun i ~fate -> exec (lo + i) ~fate);
        n = n - lo;
        next = Atomic.make 0;
        cancelled =
          (match guard with
          | Some g -> fun () -> Guard.cancelled g
          | None -> fun () -> false);
        completed = 0;
        orphans = [];
      }
    in
    Mutex.lock pool.mutex;
    pool.job <- Some job;
    pool.generation <- pool.generation + 1;
    Condition.broadcast pool.work;
    Mutex.unlock pool.mutex;
    drain pool job 0;
    Mutex.lock pool.mutex;
    let rec wait () =
      if job.completed >= job.n then ()
      else if job.orphans <> [] then begin
        (* Rescue a dead worker's abandoned claims: run them inline in
           the coordinator (fault-free by construction — the rescue path
           does not consult the fault schedule). Only the index the dead
           worker had already claimed lands here; the rest of the batch
           was claimed by the surviving workers. *)
        let orphans = job.orphans in
        job.orphans <- [];
        Mutex.unlock pool.mutex;
        let t0 = now () in
        List.iter (fun i -> job.run i ~fate:`Run) orphans;
        let dt = now () -. t0 in
        Mutex.lock pool.mutex;
        pool.busy.(0) <- pool.busy.(0) +. dt;
        job.completed <- job.completed + List.length orphans;
        wait ()
      end
      else begin
        Condition.wait pool.finished pool.mutex;
        wait ()
      end
    in
    wait ();
    pool.job <- None;
    Mutex.unlock pool.mutex
  in
  if pool.size = 1 || n <= 1 then run_inline 0
  else if force_fanout then fan_out 0
  else begin
    let gate = gate_factor *. pool.dispatch_overhead_s in
    if pool.eff <= 1 then begin
      (* Fan-out can only add overhead when there is one core. *)
      Atomic.incr g_inline;
      run_inline 0
    end
    else
      match est_s with
      | Some e when e <= gate ->
          Atomic.incr g_inline;
          run_inline 0
      | Some _ ->
          Atomic.incr g_fanout;
          fan_out 0
      | None ->
          (* Probe: spend up to one gate's worth of wall time inline,
             then extrapolate the remainder from the measured per-task
             cost. Small batches never leave the coordinator; a big
             batch pays at most [gate] before going wide. *)
          let t0 = now () in
          let i = ref 0 in
          while !i < n && now () -. t0 < gate do
            run_one !i;
            incr i
          done;
          let dt = now () -. t0 in
          Mutex.lock pool.mutex;
          pool.busy.(0) <- pool.busy.(0) +. dt;
          Mutex.unlock pool.mutex;
          if !i >= n then Atomic.incr g_inline
          else begin
            let per_task = dt /. float_of_int !i in
            let rest = n - !i in
            if rest >= 2 && float_of_int rest *. per_task > gate then begin
              Atomic.incr g_fanout;
              fan_out !i
            end
            else begin
              Atomic.incr g_inline;
              run_inline !i
            end
          end
  end;
  (* Inline retry of failed tasks: an injected or otherwise transient
     exception recovers here; a deterministic one fails again and is
     reported. Tasks must therefore be effect-free or idempotent. *)
  Array.iteri
    (fun i slot ->
      match slot with
      | Some (Error _) -> exec i ~fate:`Run
      | Some (Ok _) -> ()
      | None -> assert false (* every index was run or rescued *))
    slots;
  Array.map (function Some r -> r | None -> assert false) slots

(* One fan-out of trivial tasks measures the pool's fixed dispatch cost;
   the minimum over a handful of runs discards scheduler noise (and the
   first run's domain-startup latency). Skipped under an active fault
   schedule — the measurement's task claims would shift the
   deterministic injection points of the actual workload. *)
let measure_dispatch_overhead pool =
  let tasks = Array.make (4 * pool.size) () in
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = now () in
    ignore
      (run_all ~force_fanout:true pool (fun () -> ()) tasks
        : (unit, exn * Printexc.raw_backtrace) result array);
    let dt = now () -. t0 in
    if dt < !best then best := dt
  done;
  max !best 1e-5

let () = calibrator := measure_dispatch_overhead

let map_array_result ?guard ?est_s pool f tasks =
  if Array.length tasks = 0 then [||] else run_all ?guard ?est_s pool f tasks

let errors_of_slots slots =
  Array.to_list slots
  |> List.mapi (fun i slot -> (i, slot))
  |> List.filter_map (function
       | i, Error (e, bt) -> Some (i, e, bt)
       | _, Ok _ -> None)

let values_or_raise slots =
  let errors = errors_of_slots slots in
  if errors <> [] then raise (Task_errors errors);
  Array.map (function Ok r -> r | Error _ -> assert false) slots

let map_array ?guard ?est_s pool f tasks =
  values_or_raise (map_array_result ?guard ?est_s pool f tasks)

let busy_times pool =
  Mutex.lock pool.mutex;
  let copy = Array.copy pool.busy in
  Mutex.unlock pool.mutex;
  copy

let reset_busy pool =
  Mutex.lock pool.mutex;
  Array.fill pool.busy 0 (Array.length pool.busy) 0.;
  Mutex.unlock pool.mutex

(* ------------------------------------------------------------------ *)
(* Test hooks                                                          *)
(* ------------------------------------------------------------------ *)

module Internal = struct
  let map_array_fanout ?guard pool f tasks =
    if Array.length tasks = 0 then [||]
    else values_or_raise (run_all ?guard ~force_fanout:true pool f tasks)
end
