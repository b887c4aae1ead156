(** The process-wide resource governor.

    Every core procedure of this reproduction is a {e semi-decision}
    procedure: the Skolem chase need not terminate (Definition 6), core
    termination checks are budgeted by construction (Observation 27), and
    Theorems 5-6 build theories whose smallest rewritings are (K-fold)
    exponentially large — so "ran out of resources" is a first-class,
    paper-sanctioned outcome, not an error. A [Guard.t] is the single
    account those procedures draw on: a wall-clock deadline, an
    atom/step fuel budget, a live-word memory ceiling (sampled through
    [Gc.quick_stat] at checkpoints), and a cooperative cancellation
    token that the coordinator, a sibling task, or a Unix signal handler
    can flip.

    Long-running loops call {!check} (or {!spend}) at their checkpoints —
    once per chase-stage sweep and every {!poll_mask}+1 trigger
    enumerations inside a sweep, once per rewriting worklist step, once
    per marked-process step, once per core-fold candidate. A tripped
    guard is {e sticky}: every later checkpoint reports the same cause,
    so a trip observed by one worker domain is seen by all of them and
    by the coordinator. Checkpoints are safe to call concurrently from
    multiple domains.

    The contract a trip buys ("what does [Exhausted] guarantee?"): a
    procedure that observes a trip abandons only {e unfinished} work —
    the partial result it returns is a sound prefix of the fault-free
    computation (chase stages [Ch_0 .. Ch_i] exactly, a subset of the
    saturated rewriting UCQ, ...), never a corrupted or speculative
    state. The differential fault-injection suite in
    [test/test_properties.ml] checks exactly this. *)

type cause =
  | Deadline  (** the wall-clock deadline passed *)
  | Fuel  (** the atom/step fuel account ran dry *)
  | Memory  (** [Gc.quick_stat] sampled more live words than the ceiling *)
  | Cancelled  (** the cancellation token was flipped *)

val pp_cause : Format.formatter -> cause -> unit
val cause_to_string : cause -> string

type counters = {
  checkpoints : int;  (** guard checkpoints passed so far *)
  fuel_spent : int;  (** fuel units drawn through {!spend} *)
  elapsed_s : float;  (** wall-clock seconds since {!create} *)
  peak_heap_words : int;
      (** largest [Gc.quick_stat].heap_words observed at a memory-sampling
          checkpoint (0 when no ceiling was set: unmetered runs skip the
          sampling) *)
}

(** The one outcome type every long-running entry point derives:
    ['a] is the completed result, ['p] the partial state salvaged at a
    trip. [Termination.Budget_exhausted] and [Entailment.Unknown] are
    this type's [Exhausted] case seen through a verdict that has no
    partial payload; [Rewrite]'s [_budget] outcomes additionally name
    which budget field tripped. *)
type ('a, 'p) outcome =
  | Complete of 'a
  | Exhausted of { partial : 'p; cause : cause; progress : counters }

type t

val create :
  ?deadline_s:float ->
  ?fuel:int ->
  ?max_heap_words:int ->
  ?cancel:bool Atomic.t ->
  unit ->
  t
(** [create ()] is an unlimited guard (it can still be {!cancel}ed, and
    still honours injected {!Faults}). [deadline_s] is a relative budget
    in seconds from now; [fuel] an initial fuel balance drawn down by
    {!spend}; [max_heap_words] a live-word ceiling checked against
    [Gc.quick_stat] heap words every {!mem_mask}+1 checkpoints.
    [cancel] lets several guards share one cancellation token (the CLI
    installs its SIGINT handler on such a shared token). *)

val unlimited : unit -> t
(** A fresh guard with no deadline, fuel, or memory ceiling. *)

val cancel : t -> unit
(** Flip the cancellation token. Cooperative: running work stops at its
    next checkpoint. Idempotent; safe from signal handlers and sibling
    domains. *)

val cancelled : t -> bool

val check : t -> cause option
(** The checkpoint. [None]: keep going. [Some cause]: stop, salvage the
    partial state, report [Exhausted]. Sticky — once tripped, every
    subsequent check returns the same cause. *)

val spend : t -> int -> cause option
(** [spend g n] draws [n] fuel units, then behaves as [check g]; the
    guard trips with {!Fuel} when the balance goes negative. With no
    fuel budget, equivalent to [check g]. *)

val status : t -> cause option
(** The sticky trip state, without performing a checkpoint (no counter
    movement, no sampling). *)

val progress : t -> counters

val outcome : t -> complete:'a -> partial:'p -> ('a, 'p) outcome
(** Package a result: [Complete complete] if the guard never tripped,
    otherwise [Exhausted] with the trip cause and current counters. *)

val poll_mask : int
(** Inner-loop checkpoint spacing: callers in per-trigger/per-candidate
    loops call [check] only when [count land poll_mask = 0], giving
    checkpoints every 64 iterations — fine enough that a 1 ms deadline
    on an exponential chase stage returns in well under a second. *)

val mem_mask : int
(** A memory-ceiling guard samples [Gc.quick_stat] every [mem_mask]+1
    checkpoints (every 32nd). *)

(** {1 Deterministic fault injection}

    A seeded, process-wide schedule of synthetic failures, consulted by
    {!check} and by the [Checkpoint] snapshot layer. Everything is
    derived from one integer seed (the [FRONTIER_FAULTS] environment
    variable, or {!Faults.install} directly), so a failing run is
    replayable. The injected faults:

    {ul
    {- {e simulated deadline/memory trips}: a guard checkpoint trips as
       if the deadline had passed or the ceiling been hit — exercising
       every [Exhausted] salvage path without waiting for real
       exhaustion;}
    {- {e IO faults} (consulted by the [Checkpoint] snapshot layer, never
       by compute paths): a snapshot write is torn short before the
       rename, an fsync fails as if the disk were full ([ENOSPC]), or a
       snapshot read returns corrupted bytes — exercising the
       checksum-validation and degradation ladder without real disk
       failures.}} *)
module Faults : sig
  type schedule

  val none : schedule
  (** The empty schedule: no injection (the production default). *)

  val of_seed : int -> schedule
  (** Deterministically derive a schedule from a seed: the seed's low
      bits select which fault kinds are active and the injection periods
      (every n-th checkpoint trips, every k-th IO operation of a kind
      fails). Seed 0 is {!none}. *)

  val from_env : unit -> schedule
  (** [FRONTIER_FAULTS] parsed as an integer seed; {!none} when unset
      or malformed. *)

  val with_io :
    ?torn_every:int ->
    ?fsync_fail_every:int ->
    ?corrupt_every:int ->
    schedule ->
    schedule
  (** Override the schedule's IO-fault periods explicitly (the
      checkpoint test-suite's precision knob): every [torn_every]-th
      snapshot write is torn short, every [fsync_fail_every]-th fsync
      raises [ENOSPC], every [corrupt_every]-th snapshot read is
      corrupted. Omitted arguments keep the schedule's derived values. *)

  val install : schedule -> unit
  (** Make the schedule current, resetting the process-wide checkpoint
      and IO counters (so runs are replayable). [install none]
      turns injection off. *)

  val current : unit -> schedule

  val describe : schedule -> string
  (** Human-readable summary of what the schedule injects. *)

  (** {2 Hooks (used by [Guard.check] and [Checkpoint])} *)

  val forced_trip : unit -> cause option
  (** Consulted once per guard checkpoint: [Some Deadline] / [Some
      Memory] when the schedule trips this checkpoint. *)

  val io_fate : [ `Write | `Fsync | `Read ] -> [ `Ok | `Torn | `Enospc | `Corrupt ]
  (** Consulted once per checkpoint-layer IO operation, on a counter of
      its own (compute-path checkpoints never move it). [`Torn] directs
      a snapshot write to truncate its payload before the rename (a
      simulated torn write — the file lands, its checksum does not
      verify); [`Enospc] directs the fsync to fail as if the device
      were full (the snapshot write is abandoned, the run continues);
      [`Corrupt] directs a snapshot read to flip a byte before
      validation. Faults only fire on the matching operation kind. *)
end
