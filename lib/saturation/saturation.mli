(** The generic saturation kernel.

    Everything this reproduction computes is a fixpoint saturation over a
    worklist: the semi-oblivious chase grows a fact set stage by stage
    (Definition 6), UCQ rewriting saturates a minimal disjunct store by
    piece-unifier steps (Theorem 1), the core/termination probes iterate
    "step then fold" rounds (Section 5), and the marked-query process
    pops one marking at a time and applies a rank-descending operation
    (Section 10). Each of them takes one item per step, and so does
    [run]: a round is one step on the head of the worklist. The kernel
    owns the worklist, {!Guard.t} polling at round boundaries, the
    round-discarding trip protocol, whole-run counters and the save
    cadence — each client shrinks to a domain-specific expansion
    {e step}.

    The kernel's loop discipline is the contract the differential fault
    suite relies on:

    {ul
    {- the guard is checkpointed once at every round boundary (before any
       work), and a trip there costs nothing — the round never ran;}
    {- a step may additionally observe a mid-round trip (its tasks poll
       the same sticky guard); it then returns [commit = false] and the
       kernel discards the round wholesale, so the accumulated state is
       always a sound prefix of the fault-free computation;}
    {- a step may also {e decline} its item without tripping (a client
       step budget ran out): [commit = false] with the guard untripped
       stops the run ([Stopped]) with the item still at the frontier's
       head;}
    {- after a committed round, the sticky trip state is consulted once
       more, so a trip raised by [Guard.spend] inside the step stops the
       saturation with the committed round kept.}}

    The worklist is a FIFO queue whose head is only popped when its
    round commits, so a discarded or declined round needs no put-back.
    All plumbing is constant-stack, so frontiers of millions of items
    are safe (verified on a 1M-item frontier by the test suite). *)

(** Whole-run counters, uniform across every saturation this repository
    runs (chase sweeps, rewriting pops, marked-process steps): what the
    [--stats] flags and the bench harness print. *)
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
    index : int;  (** 1-based absolute round number *)
    tally : tally;
    wall_s : float;  (** wall-clock seconds for the round *)
  }
  (** One committed round, for a client that keeps per-round records
      (the chase engine keeps one per stage, [Engine.stage_stats]);
      the kernel itself keeps none. *)

  type t = {
    rounds : int;  (** committed rounds (discarded rounds don't count) *)
    totals : tally;
    wall_s : float;  (** whole-run wall clock, discarded rounds included *)
  }

  val pp_round : Format.formatter -> round -> unit
  (** One line: [round N: expanded E -> G generated, A admitted (D
      deduped), T s]. *)

  val pp : Format.formatter -> t -> unit
  (** The totals line shared by every [--stats] flag. *)
end

type verdict =
  | Saturated  (** the worklist drained: a true fixpoint was reached *)
  | Stopped
      (** the step asked to stop, declined its item, or [max_rounds] ran
          out — a client-level budget, not a guard trip *)
  | Tripped of Guard.cause
      (** the guard tripped (at a round boundary, inside a discarded
          round, or by a [spend] within a committed one) *)

type 'w step_result = {
  next : 'w list;
      (** new worklist items, enqueued behind the remaining frontier in
          order *)
  tally : Stats.tally;
  stop : bool;  (** stop after this round (client budget exhausted) *)
  commit : bool;
      (** [false]: the round is discarded — no round count, no tally, no
          enqueue, and the item stays at the frontier's head. The run
          finishes with the guard's sticky cause if a worker observed a
          trip, and [Stopped] if the step declined the item untripped *)
}

val discard : 'w step_result
(** Nothing produced, [commit = false]: what a step returns to have its
    round discarded after a trip, or to decline its item. *)

val run :
  ?guard:Guard.t ->
  ?max_rounds:int ->
  ?base_round:int ->
  ?checkpoint:
    Checkpoint.sink * (round:int -> 'w list -> Checkpoint.Snapshot.t) ->
  init:'w list ->
  step:(round:int -> 'w -> 'w step_result) ->
  unit ->
  verdict * Stats.t
(** Defaults: [guard] unlimited, [max_rounds = max_int].

    The step receives the frontier's head and the absolute number of the
    round being attempted. The kernel knows no domain pool: a step that
    fans its work out (the chase sweeps) holds its own.

    Round protocol, in order: (1) empty frontier — [Saturated]; (2)
    [max_rounds] committed rounds reached — [Stopped]; (3) guard
    checkpoint — a trip is [Tripped] with no round run; (4) the step
    runs on the head item; (5) [commit = false] — round discarded (the
    item stays at the head), verdict from the sticky guard state, or
    [Stopped] when untripped: a declined item; (6) round committed: the
    head is popped, stats accumulated, [next] enqueued, a due cadence
    save fires, then the sticky guard state is consulted ([Tripped]
    keeps the committed round), then [stop] — [Stopped].

    A step budget is a decline: the step's first action compares its
    own counter with its budget and returns [commit = false] when it is
    spent. That leaves the same verdict, frontier and guard checkpoints
    as a run whose budget had been checked before step (4).

    Resumption: [base_round] (default 0) offsets the round arithmetic —
    the step's [round], the [max_rounds] cutoff, and the [checkpoint]
    cadence all use [base_round + committed-this-segment], so a run
    resumed from a round-[r] snapshot with [base_round:r] continues
    exactly where the interrupted one left off (the paper's Observation
    8 makes the chase instance of this literally bit-identical).
    [Stats.t] itself stays segment-local: [rounds] and the tallies count
    only work done by this call.

    Durability: with [checkpoint = (sink, encode)] the kernel is the one
    place that saves. After a committed round whose absolute number is a
    multiple of [sink.every], and at least [sink.min_interval_s] after
    the previous save {e ended}, it calls [encode ~round] on the frontier
    (in FIFO order) {e after} that round's productions were enqueued and
    hands the snapshot to {!Checkpoint.save_to} (which never raises).
    [encode] is where the client serializes its own evolving state (fact
    stages, disjunct store, ...) alongside that frontier. Every
    non-[Saturated] finish also saves the current frontier (skipped only
    when the cadence save already captured that exact round), so trips,
    budget stops, and SIGINT/SIGTERM cancellations always leave
    resumable state behind. *)
