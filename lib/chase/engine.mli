(** The semi-oblivious Skolem chase (Definitions 5-6).

    [run] computes the stages [Ch_0(T,D) .. Ch_k(T,D)] bottom-up with
    semi-naive evaluation, stopping at saturation (then [Ch_k = Ch(T,D)]),
    at [max_depth], or at [max_atoms]. Thanks to the Skolem naming
    convention the stages are honest *sets*: re-running from any
    intermediate stage produces literally the same atoms (Observation 8).

    Every derived atom records all rule applications [(rho, sigma)] that
    created it — the raw material for birth atoms (Observation 10) and the
    parent/ancestor functions of Appendix A. *)

open Logic

type run

val run :
  ?pool:Parallel.Pool.t ->
  ?guard:Guard.t ->
  ?max_depth:int -> ?max_atoms:int ->
  ?checkpoint:Checkpoint.sink ->
  Theory.t -> Fact_set.t -> run
(** Defaults: [max_depth = 50], [max_atoms = 200_000], [pool] a private
    size-1 pool, [guard] unlimited, no [checkpoint].

    With a pool of [N > 1] domains, each stage's semi-naive trigger
    enumeration is partitioned by (rule x delta-seed position) across the
    domains and the per-task results are merged at the stage barrier in
    task order — the exact production order of the sequential engine — so
    stages, saturation and budget flags, and recorded provenance are
    identical whatever [N] is.

    The guard is checkpointed at every stage boundary and every
    {!Guard.poll_mask}+1 trigger enumerations inside each parallel task,
    and the stage's fresh atoms are drawn from its fuel account. On a
    trip, a partially enumerated sweep is discarded wholesale, so the
    recorded stages are always exactly [Ch_0 .. Ch_i] — a sound prefix
    of the fault-free chase ({!interrupted} reports the cause;
    [max_depth]/[max_atoms] remain as thin compatibility shims over the
    same mechanism).

    With [checkpoint], the run emits a crash-safe snapshot of the chase
    state (theory, stage deltas, creating-application provenance) into
    the sink's directory at the sink's round cadence, plus a final one
    at any non-saturated finish — see {!resume}. *)

val checkpoint_kind : string
(** The [Checkpoint.Snapshot.kind] tag chase snapshots carry: ["chase"]. *)

val resume :
  ?pool:Parallel.Pool.t ->
  ?guard:Guard.t ->
  ?max_depth:int -> ?max_atoms:int ->
  ?checkpoint:Checkpoint.sink ->
  Checkpoint.Snapshot.t -> run
(** Continue a chase from a (validated) snapshot. Stage numbering, the
    [max_depth] cutoff, and the checkpoint cadence continue in absolute
    rounds; [max_depth]/[max_atoms] default to the values recorded in
    the snapshot. Because decoding re-interns every term and [Tgd.make]
    rebuilds Skolem patterns from head isomorphism types (Definition 4,
    Observation 8), the resumed stages are {e bit-identical} to an
    uninterrupted run's: [stage], [result], [saturated],
    [stage_of_atom], [atom_frontier] and [birth_atom] all agree. Two
    caveats: {!kernel_stats} covers only the resumed segment, and
    {!derivations} lists only the creating application for pre-snapshot
    atoms (rediscovery derivations are not serialized).

    Raises [Invalid_argument] on a snapshot of a different kind and
    [Checkpoint.Codec.Error] on undecodable content. *)

val kernel_stats : run -> Saturation.Stats.t
(** The saturation kernel's totals for the run: one round per executed
    sweep ([expanded] = trigger homomorphisms enumerated, [generated] =
    atom productions with rediscoveries, [admitted] = the stage's fresh
    atoms). *)

val stage_stats : run -> Saturation.Stats.round array
(** One record per executed sweep, in stage order: its absolute round
    number, its tally, and the wall time of the whole step (sweep and
    merge). The engine keeps these itself (the kernel keeps no per-round
    records); they are identical across pool sizes except for
    [wall_s]. When the run saturated, the final entry is the
    fixpoint-confirming sweep (which derived nothing), so the array has
    [depth r + 1] entries; otherwise [depth r]. Like {!kernel_stats},
    a resumed run's records cover only the resumed segment. *)

val theory : run -> Theory.t
val initial : run -> Fact_set.t

val depth : run -> int
(** Index of the last computed stage. *)

val saturated : run -> bool
(** True iff the last stage is a fixpoint, i.e. equals [Ch(T, D)]. *)

val interrupted : run -> Guard.cause option
(** Why the run stopped early, if a guard (or the [max_atoms] compat
    budget, reported as {!Guard.Fuel}) tripped; [None] when the run
    saturated or only exhausted [max_depth]. *)

val guard : run -> Guard.t
(** The guard the run drew on (an unlimited one when none was given). *)

val outcome : run -> (run, run) Guard.outcome
(** The unified verdict: [Complete] iff the run saturated, otherwise
    [Exhausted] with the trip cause ({!Guard.Fuel} for the depth/atom
    compat budgets) and the guard's progress counters. The partial run
    is a sound prefix: every recorded stage [i] is exactly [Ch_i]. *)

val stage : run -> int -> Fact_set.t
(** [stage r i] is [Ch_i(T,D)]. For [i > depth r]: the last stage when
    saturated (the chase stabilized), otherwise [Invalid_argument]. *)

val result : run -> Fact_set.t
(** The deepest computed stage. *)

val new_at_stage : run -> int -> Atom.t list
(** Atoms first appearing in stage [i]. *)

val stage_of_atom : run -> Atom.t -> int option
(** First stage containing the atom; [None] for atoms outside the run. *)

val derivations : run -> Atom.t -> (Tgd.t * Homomorphism.mapping) list
(** All recorded rule applications creating the atom (empty for initial
    facts). *)

val atom_frontier : run -> Atom.t -> Term.Set.t option
(** [fr(alpha)] — the images of the creating rule's frontier variables;
    well-defined across derivations by Observation 9. [None] for initial
    facts. *)

val birth_atom : run -> Term.t -> Atom.t option
(** Observation 10: the unique atom in which a chase-invented term occurs
    outside the frontier. [None] for initial-domain terms. *)

val invented_terms : run -> Term.Set.t
(** [dom(Ch) \ dom(D)] restricted to the computed prefix. *)

val rule_counts : run -> (string * int) list
(** Number of atoms whose creating application used each rule (by rule
    name), sorted descending — a cheap profile of which rules drive the
    chase. *)
