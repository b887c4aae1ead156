(** A pool of OCaml 5 domains, hardened for degraded-mode operation.

    The pool executes arrays of independent tasks. Every worker of a job
    claims the next index through one shared atomic cursor
    (fetch-and-add) until the cursor passes the end. Because the cursor
    only moves forward, "the cursor is past the end" is a stable
    condition, so no index can be lost to a scheduling race — including
    the remainder of a batch whose worker died mid-job, which the
    survivors claim like any other index. Results are written into
    per-index slots, so the merged output is in task order regardless of
    which domain ran what. This is what makes the parallel chase
    deterministic: callers fix a task order, and the pool guarantees the
    merged result is as if the tasks ran sequentially in that order
    (provided tasks are independent).

    The pool's library clients are the chase sweeps ([Chase.Engine] and
    [Chase.Variants], and the probes built on them). The UCQ rewriting
    and the marked process are sequential worklists and take no pool:
    their fan-outs never beat [-j1] on a measured workload.

    A pool of size 1 never spawns domains and runs everything inline in the
    caller, so [~pool:(Pool.create 1)] is observationally the sequential
    code path.

    Failure containment: a task that raises does {e not} poison the batch.
    Its per-index slot records the exception with its backtrace, every
    other task still runs, the coordinator retries each failed index once
    inline (recovering transient and injected faults), and only then are
    the surviving failures aggregated into a single {!Task_errors}. A
    worker "killed" by the fault-injection schedule ({!Guard.Faults})
    abandons only the index it had already claimed — rescued inline by the
    coordinator — while the unclaimed remainder of the batch is claimed by
    the surviving workers; at pool size 1 all of this degenerates to plain
    sequential execution. Because failed or orphaned tasks may be
    re-executed, tasks must be effect-free or idempotent.

    Tasks must not themselves call into the same pool (no nesting), and the
    shared structures they read must be published before [map_array] is
    called (the job hand-off is a memory barrier: anything written by the
    caller before [map_array] is visible to the workers). *)

exception Task_errors of (int * exn * Printexc.raw_backtrace) list
(** All task failures of one batch — [(task index, exception, backtrace)],
    sorted by task index. Raised by {!map_array} after the barrier, once
    every task has run and each failed one has been retried inline. *)

type t

val create : int -> t
(** [create n] makes a pool of [n - 1] worker domains (the caller
    participates as worker 0 during [map_array]). [n] is clamped below
    at 1. The domains themselves are spawned lazily, on the first batch
    the cost gate actually fans out — a pool that stays inline (always
    the case at effective parallelism 1) never spawns any, so idle
    workers never tax the runtime's stop-the-world collections. Pools
    are long-lived; create one per process or per [-j] setting, not per
    call. [create 1] never spawns and is cheap enough to make per run. *)

val size : t -> int

val shutdown : t -> unit
(** Terminate and join the worker domains. The pool must not be used
    afterwards. Idempotent. *)

val map_array :
  ?guard:Guard.t -> ?est_s:float -> t -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map] with deterministic output order. If tasks raise,
    the remaining tasks still run, failed indices are retried inline, and
    the surviving failures are re-raised together as {!Task_errors} after
    the barrier. With [?guard], workers stop claiming new tasks once the
    guard is cancelled; the coordinator finishes the remaining tasks
    inline (guard-aware task bodies early-exit at their own checkpoints),
    so the call always returns. Must be called from the thread that
    created the pool (the coordinator), never from inside a task.

    [?est_s] is the caller's estimate of the batch's whole sequential
    cost in seconds, consumed by the cost gate (see below):
    an estimate below the gate threshold skips both the fan-out and the
    gate's own probe phase; a large one fans out immediately. *)

val map_array_result :
  ?guard:Guard.t ->
  ?est_s:float ->
  t ->
  ('a -> 'b) ->
  'a array ->
  ('b, exn * Printexc.raw_backtrace) result array
(** Degraded-mode variant of {!map_array}: never raises {!Task_errors};
    each persistent per-task failure stays in its slot as [Error]. *)

(** {1 Cost-gated fan-out}

    Dispatching a job to the workers costs a fixed overhead — posting,
    wake-ups, the completion handshake — measured per pool by a one-shot
    microbenchmark when its workers first spawn
    ({!dispatch_overhead_s}). The cost gate
    compares each batch against a small multiple of that overhead and
    runs cheap batches inline on the coordinator: with no [?est_s] hint
    it {e probes} (runs tasks inline for up to one threshold's worth of
    wall time, then fans out the remainder iff its extrapolated cost
    also clears the threshold). On a machine whose core count makes the
    pool's parallelism nominal ([min size cores = 1]) nothing is ever
    fanned out. The gate changes scheduling only — every client's
    cross-[-j] determinism contract is unaffected, because inline
    execution is exactly the size-1 code path. *)

val dispatch_overhead_s : t -> float
(** The measured fixed cost of one fan-out through this pool, in
    seconds. Size-1 pools, pools that have never fanned a batch out, and
    pools whose workers first spawned under an active fault-injection
    schedule (where the microbenchmark would shift the deterministic
    claim numbering) report a conservative default. *)

type gate_counters = {
  inline_batches : int;
      (** batches the gate kept on the coordinator (including probes
          that exhausted the batch) *)
  fanout_batches : int;  (** batches the gate sent to the workers *)
}

val gate_counters : unit -> gate_counters
(** Process-wide tallies of gate decisions — only batches where fan-out
    was possible (pool size > 1, at least 2 tasks) and the gate was
    consulted are counted. Thread-safe. *)

val busy_times : t -> float array
(** Cumulative per-worker busy seconds (index 0 is the coordinator),
    accumulated across [map_array] calls since creation or the last
    [reset_busy]. Length equals [size]. *)

val reset_busy : t -> unit

(** {1 Test hook}

    Not part of the stable API. *)
module Internal : sig
  val map_array_fanout :
    ?guard:Guard.t -> t -> ('a -> 'b) -> 'a array -> 'b array
  (** {!map_array} with the cost gate bypassed for this batch: any batch
      of two or more tasks on a pool of size > 1 goes to the workers,
      even on one core — the only way to reach the fan-out and
      dead-worker paths with deliberately tiny tasks. *)
end
