(** The unified executable-plan evaluation layer.

    Rewriting turns an ontology-mediated query into a UCQ; this module
    is the half that {e executes} the result against data. A CQ compiles
    into a worst-case-optimal, leapfrog-style multiway join over sorted
    per-column views of the fact set's rows of term ids: one global variable
    elimination order (connectivity-greedy — each next variable shares
    an atom with the ordered prefix whenever possible), per-atom
    key-column permutations fixed at plan time (rigid slots first), and
    per-variable iterator frontiers intersected with galloping
    (exponential-probe) seeks. The sorted views belong to the fact set
    ({!Fact_set.sorted_view}): each (relation, key order) is sorted once
    per instance and freed with it, so repeated queries against one
    instance pay no sort, however many instances are in use.

    Each evaluation has one answer sink: a single dedup table and its
    tuple list, sorted once at the end. A [Ucq.t] runs every disjunct's
    plan into the same sink, and a CQ is the one-plan case. Once a plan
    has bound every answer variable,
    a tuple already in the sink is skipped at once (known-answer
    pruning), without searching the purely existential levels for a
    witness; this holds inside one plan as well as across disjuncts, so
    a tuple found by an early disjunct is never produced again.

    This module evaluates CQs and UCQs over instances and nothing else,
    and every CQ runs on the leapfrog join. The other matchers call the
    register machine
    ({!Homomorphism}) directly: containment checks, whose targets are
    query bodies of a few dozen atoms, and the chase's trigger rounds,
    whose enumeration order names fresh nulls. Point checks of one
    answer tuple use {!Cq.holds} / {!Ucq.holds}. *)

open Logic

(** {1 Plans} *)

module Plan : sig
  type t

  val compile : Cq.t -> t
  (** Compile [q] into a leapfrog plan; total on [Cq.t]. A query
      variable in argument position binds at its level; every other
      argument — a constant or a functional term, even one with a query
      variable inside — is a rigid key matched by hash-consed identity,
      as in the register-machine search: [E(x, f(y))] matches the fact
      [E(a, f(y))] and not [E(b, f(b))]. *)

  val order : t -> Term.t list
  (** The global variable elimination order: connectivity-greedy from
      the most-occurring variable, so each level's frontier is
      constrained by the levels above it. Answer tuples are projections
      of the join, deduplicated in the evaluation's sink. *)

  val pp : t Fmt.t
end

(** {1 CQ / UCQ evaluation}

    Drop-in equivalents of [Cq.answers]/[Cq.boolean_holds] and their
    UCQ counterparts, executing through plans. *)

val answers : ?guard:Guard.t -> Cq.t -> Fact_set.t -> Term.t list list
(** All distinct answer tuples of [Cq.free], like {!Cq.answers}. One
    fuel unit is drawn per tuple new to the evaluation's table, and the
    guard's deadline and cancellation are polled at {!Guard.poll_mask}
    spacing. The join stops at the trip: fuel [k] keeps exactly [k]
    tuples. On a guard trip the partial (sound) tuple list is
    returned; use {!answers_outcome} to observe the trip. *)

val answers_outcome :
  ?guard:Guard.t ->
  Cq.t ->
  Fact_set.t ->
  (Term.t list list, Term.t list list) Guard.outcome

val boolean_holds : Cq.t -> Fact_set.t -> bool

val ucq_answers : ?guard:Guard.t -> Ucq.t -> Fact_set.t -> Term.t list list
(** Distinct answers of the union: every disjunct's plan runs into one
    answer sink, so fuel is drawn once per distinct tuple of the union
    and a trip stops the remaining disjuncts. *)

val ucq_answers_outcome :
  ?guard:Guard.t ->
  Ucq.t ->
  Fact_set.t ->
  (Term.t list list, Term.t list list) Guard.outcome

val ucq_boolean_holds : Ucq.t -> Fact_set.t -> bool

(** {1 Instrumentation}

    Process-wide counters of leapfrog work, surfaced through the CLI's
    [--stats] plumbing next to the register-machine and posting
    counters. Thread-safe. *)

type counters = {
  plans : int;  (** plans executed, one per CQ evaluated *)
  seeks : int;  (** iterator seek operations *)
  gallops : int;  (** exponential-probe doubling steps inside seeks *)
  emitted : int;
      (** tuples new to their evaluation's table: the evaluation's
          distinct answers (one for a true {!boolean_holds}) *)
}

val counters : unit -> counters
(** Running totals since the process started; callers measure a run as
    the difference of two reads. *)
