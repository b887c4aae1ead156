(** The unified executable-plan evaluation layer.

    Rewriting turns an ontology-mediated query into a UCQ; this module
    is the half that {e executes} the result against data. A CQ compiles
    into a worst-case-optimal, leapfrog-style multiway join over sorted
    per-column views of the fact set's arena rows: one global variable
    elimination order (connectivity-greedy — each next variable shares
    an atom with the ordered prefix whenever possible), per-atom
    key-column permutations fixed at plan time (rigid slots first), and
    per-variable iterator frontiers intersected with galloping
    (exponential-probe) seeks. The sorted views belong to the fact set
    ({!Fact_set.sorted_view}): each (relation, key order) is sorted once
    per instance and freed with it, so repeated queries against one
    instance pay no sort, however many instances are in use. A
    [Ucq.t] evaluates as a union of plans sharing one dedup table, so a
    tuple produced by an early disjunct is never re-emitted.

    This module evaluates CQs and UCQs over instances and nothing else.
    A body the leapfrog compiler cannot represent (see
    {!Plan.compiled}) enumerates through the register-machine search
    instead. The other matchers call the register machine
    ({!Homomorphism}) directly: containment checks, whose targets are
    query bodies of a few dozen atoms, and the chase's trigger rounds,
    whose enumeration order names fresh nulls. Point checks of one
    answer tuple use {!Cq.holds} / {!Ucq.holds}. *)

open Logic

(** {1 Plans} *)

module Plan : sig
  type t

  val compile : Cq.t -> t
  (** Compile [q] into an executable plan. Queries the leapfrog engine
      cannot represent (an argument that is neither a bindable variable
      nor a closed term) compile to a fallback plan instead —
      {!compiled} tells them apart. *)

  val compiled : t -> bool
  (** [true]: the plan runs on the leapfrog join; [false]: it
      enumerates through the register-machine homomorphism search. *)

  val order : t -> Term.t list
  (** The global variable elimination order: connectivity-greedy from
      the most-occurring variable, so each level's frontier is
      constrained by the levels above it. Answer tuples are projections
      of the full join, deduplicated as rows are emitted. Empty for
      fallback plans. *)

  val pp : t Fmt.t
end

(** {1 CQ / UCQ evaluation}

    Drop-in equivalents of [Cq.answers]/[Cq.boolean_holds] and their
    UCQ counterparts, executing through plans. *)

val answers : ?guard:Guard.t -> Cq.t -> Fact_set.t -> Term.t list list
(** All distinct answer tuples of [Cq.free], like {!Cq.answers}. One
    fuel unit is drawn per distinct tuple, and the guard's deadline and
    cancellation are polled at {!Guard.poll_mask} spacing. On a guard
    trip the partial (sound) tuple list is returned; use
    {!answers_outcome} to observe the trip. *)

val answers_outcome :
  ?guard:Guard.t ->
  Cq.t ->
  Fact_set.t ->
  (Term.t list list, Term.t list list) Guard.outcome

val boolean_holds : Cq.t -> Fact_set.t -> bool

val ucq_answers : ?guard:Guard.t -> Ucq.t -> Fact_set.t -> Term.t list list
(** Distinct answers of the union, evaluated disjunct by disjunct over
    the fact set's sorted views with early cross-disjunct dedup. *)

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
  plans : int;  (** leapfrog plans executed *)
  seeks : int;  (** iterator seek operations *)
  gallops : int;  (** exponential-probe doubling steps inside seeks *)
  emitted : int;  (** answer tuples emitted (pre-dedup) *)
}

val counters : unit -> counters
(** Running totals since the process started; callers measure a run as
    the difference of two reads. *)
