(** The generic saturation kernel.

    Everything this reproduction computes is a fixpoint saturation over a
    worklist: the semi-oblivious chase grows a fact set stage by stage
    (Definition 6), UCQ rewriting saturates a minimal disjunct store by
    piece-unifier steps (Theorem 1), the core/termination probes iterate
    "step then fold" rounds (Section 5), and the marked-query process
    drains a queue of markings by rank-descending operations (Section 10).
    [run] is the one loop under all of them: it owns the worklist, the
    round structure, {!Guard.t} polling, the round-discarding trip
    protocol, and per-round stats emission — each client shrinks to a
    domain-specific expansion {e step}.

    The kernel's loop discipline is the contract the differential fault
    suite relies on:

    {ul
    {- the guard is checkpointed once at every round boundary (before any
       work), and a trip there costs nothing — the round never ran;}
    {- a step may additionally observe a mid-round trip (its tasks poll
       the same sticky guard); it then returns [commit = false] and the
       kernel discards the round wholesale, so the accumulated state is
       always a sound prefix of the fault-free computation;}
    {- after a committed round, the sticky trip state is consulted once
       more, so a trip raised by [Guard.spend] inside the step stops the
       saturation with the committed round kept.}}

    The worklist is a flat array-backed FIFO: a round's batch is one
    contiguous [Array.sub] off the head, productions append at the tail,
    and the frontier size is O(1). All plumbing is constant-stack, so
    frontiers of millions of items are safe (verified on a 1M-item
    frontier by the test suite). *)

(** Per-round and whole-run counters, uniform across every saturation
    this repository runs (chase sweeps, rewriting pops, marked-process
    steps): what the [--stats] flags and the bench harness print. *)
module Stats : sig
  type tally = {
    expanded : int;
        (** worklist items the round actually expanded (chase: trigger
            homomorphisms enumerated; rewriting: live disjuncts popped;
            marked process: operations applied) *)
    generated : int;
        (** raw productions before dedup/subsumption (chase: atom
            productions, rediscoveries included; rewriting: one-step
            rewritings) *)
    admitted : int;
        (** productions that survived dedup/subsumption and entered the
            evolving state (chase: the stage's fresh atoms; rewriting:
            disjuncts added to the store) *)
    deduped : int;
        (** productions rejected as duplicates/subsumed *)
  }

  val zero : tally
  val add : tally -> tally -> tally

  val tally :
    ?expanded:int -> ?generated:int -> ?admitted:int -> ?deduped:int ->
    unit -> tally
  (** Any omitted field is 0. *)

  type round = {
    index : int;  (** 1-based round number *)
    frontier : int;  (** worklist items handed to the step *)
    tally : tally;
    wall_s : float;  (** wall-clock seconds for the round *)
    domain_busy_s : float array;
        (** per-domain busy seconds inside the round (index 0 = caller);
            [[||]] when the run recorded no pool activity *)
  }

  type t = {
    rounds : int;  (** committed rounds (discarded rounds don't count) *)
    totals : tally;
    wall_s : float;  (** whole-run wall clock, discarded rounds included *)
    per_round : round array;
        (** one entry per committed round, in order; empty when the run
            was started with [record_rounds:false] *)
  }

  val pp_round : Format.formatter -> round -> unit
  (** One line: [round N: frontier F, expanded E -> G generated, A
      admitted (D deduped), T s [busy ...]]. The shared rendering behind
      every [--stats] flag. *)

  val pp : Format.formatter -> t -> unit
  (** The per-round lines (when recorded) followed by a totals line. *)
end

type verdict =
  | Saturated  (** the worklist drained: a true fixpoint was reached *)
  | Stopped
      (** the step asked to stop, [max_rounds] ran out, or the drain
          hook returned a non-positive batch size — a client-level
          budget, not a guard trip *)
  | Tripped of Guard.cause
      (** the guard tripped (at a round boundary, inside a discarded
          round, or by a [spend] within a committed one) *)

type ctx = {
  pool : Parallel.Pool.t;  (** for fanning the step's work out *)
  guard : Guard.t;  (** the sticky trip account the step must poll *)
  round : int;  (** 1-based number of the round being attempted *)
}

type 'w step_result = {
  next : 'w list;
      (** new worklist items, enqueued behind the remaining frontier in
          order *)
  tally : Stats.tally;
  stop : bool;  (** stop after this round (client budget exhausted) *)
  commit : bool;
      (** [false]: the round was aborted mid-flight (a worker observed a
          guard trip); the kernel discards it — no round count, no tally,
          no enqueue — and finishes with the guard's sticky cause *)
}

type drain =
  | All  (** each round takes the whole frontier (chase-style stages) *)
  | At_most of (unit -> int)
      (** each round takes at most [f ()] items ([1] = one-at-a-time
          worklist); a non-positive answer stops the run ([Stopped]) —
          the hook is how clients express step budgets *)

(** The durability hook: how a client asks the kernel to emit resumable
    snapshots of the worklist at round boundaries. The kernel only owns
    the frontier and the round number — the [save] callback is where the
    client serializes its own evolving state (fact stages, disjunct
    store, ...) alongside the frontier array it is handed. *)
type 'w checkpoint = {
  every : int;
      (** save when the absolute round number is a multiple of this *)
  min_interval_s : float;
      (** ... and at least this much wall time passed since the last
          save — the throttle for one-item-per-round drains that commit
          hundreds of thousands of rounds *)
  save : round:int -> final:bool -> 'w array -> unit;
      (** called with the absolute committed-round number and the
          frontier {e after} that round's productions were enqueued;
          [final] marks the save fired at a non-[Saturated] finish
          (budget stop, guard trip, cancellation). Must not raise —
          durability is best-effort (see [Checkpoint.save_to]). *)
}

val run :
  ?pool:Parallel.Pool.t ->
  ?guard:Guard.t ->
  ?drain:drain ->
  ?max_rounds:int ->
  ?record_rounds:bool ->
  ?base_round:int ->
  ?checkpoint:'w checkpoint ->
  init:'w list ->
  step:(ctx -> 'w array -> 'w step_result) ->
  unit ->
  verdict * Stats.t
(** Defaults: [pool] a {e private} size-1 pool (so independent runs never
    share busy accounting), [guard] unlimited,
    [drain = All], [max_rounds = max_int], [record_rounds = true] (pass
    [false] on one-item-per-round drains over huge frontiers — recording
    a round per item would allocate proportionally).

    The step receives its batch as an array — a contiguous slice of the
    frontier in FIFO order; it must not mutate it.

    Every round sees the supplied pool in [ctx.pool]. Only the chase
    sweeps fan their steps out through it; the [At_most] clients (the
    UCQ rewriting, the marked process, the termination probe) run their
    steps sequentially and pass no pool.

    Round protocol, in order: (1) empty frontier — [Saturated]; (2)
    [max_rounds] committed rounds reached — [Stopped]; (3) guard
    checkpoint — a trip is [Tripped] with no round run; (4) drain hook
    non-positive — [Stopped]; (5) the step runs on the batch; (6)
    [commit = false] — round discarded (the batch goes back on the
    frontier head), verdict from the sticky guard state ([Stopped] if
    somehow untripped); (7) round committed: stats accumulated, [next]
    enqueued, a due [checkpoint] cadence save fires, then the sticky
    guard state is consulted ([Tripped] keeps the committed round),
    then [stop] — [Stopped].

    Resumption: [base_round] (default 0) offsets the round arithmetic —
    [ctx.round], [Stats.round.index], the [max_rounds] cutoff, and the
    [checkpoint] cadence all use [base_round + committed-this-segment],
    so a run resumed from a round-[r] snapshot with [base_round:r]
    continues exactly where the interrupted one left off (the paper's
    Observation 8 makes the chase instance of this literally
    bit-identical). [Stats.t] itself stays segment-local: [rounds] and
    the tallies count only work done by this call.

    Every non-[Saturated] finish with a [checkpoint] installed emits a
    last snapshot of the current frontier (skipped only when the cadence
    save already captured that exact round), so trips, budget stops, and
    SIGINT/SIGTERM cancellations always leave resumable state behind. *)

val outcome :
  verdict ->
  guard:Guard.t ->
  complete:'a ->
  partial:'p ->
  stopped_cause:Guard.cause ->
  ('a, 'p) Guard.outcome
(** Package a verdict as the unified {!Guard.outcome}: [Saturated] is
    [Complete]; [Tripped cause] is [Exhausted] with that cause;
    [Stopped] is [Exhausted] with [stopped_cause] (clients map their
    legacy step/depth budgets to {!Guard.Fuel} here). *)

val split_batch : int -> 'a list -> 'a list * 'a list
(** [split_batch n l = (first n elements of l, the rest)], both in
    order. Tail-recursive — safe on frontiers of arbitrary length. *)
