(** The unified executable-plan evaluation layer.

    Rewriting turns an ontology-mediated query into a UCQ; this module
    is the half that {e executes} the result against data. A CQ compiles
    into a worst-case-optimal, leapfrog-style multiway join over sorted
    per-column views of the fact set's arena rows: one global variable
    elimination order (connectivity-greedy — each next variable shares
    an atom with the ordered prefix whenever possible), per-atom
    key-column permutations fixed
    at plan time (bound/rigid slots first), and per-variable iterator
    frontiers intersected with galloping (exponential-probe) seeks. A
    [Ucq.t] evaluates as a union of plans sharing one dedup table, so a
    tuple produced by an early disjunct is never re-emitted.

    The same module is the single entry point for every other matcher in
    the codebase: {!Match} hosts the order-pinned trigger enumeration
    the chase engine uses (delegating to the register-machine engine —
    trigger {e order} names fresh nulls, so it must stay bit-identical),
    and at module initialization {!containment_probe} is registered in
    {!Eval_hook} for the containment solver: it looks at the target size
    first and declines targets below {!probe_leapfrog_min} facts without
    compiling anything, so the solver's own register-machine search
    decides them; larger targets run a compiled leapfrog plan. The
    legacy boxed paths remain reachable only through the {!set_eval}
    A/B toggle. *)

open Logic

val set_eval : bool -> unit
(** A/B switch (same pattern as {!Fact_set.set_arena}): [false] routes
    {!answers}, {!holds}, the UCQ evaluators and the containment probe
    back onto the legacy boxed enumeration. Defaults to [true]. *)

val eval_enabled : unit -> bool

(** {1 Plans} *)

module Plan : sig
  type t

  val compile : ?init:Term.t Term.Map.t -> Cq.t -> t
  (** Compile [q] (with the [init]-bound variables frozen to their
      images) into an executable plan. Queries the leapfrog engine
      cannot represent (an argument that is neither a bindable variable
      nor a closed term) compile to a legacy-engine plan instead —
      {!compiled} tells them apart. *)

  val compiled : t -> bool
  (** [true]: the plan runs on the leapfrog join; [false]: it delegates
      to the boxed homomorphism enumeration. *)

  val order : t -> Term.t list
  (** The global variable elimination order: connectivity-greedy from
      the most-occurring variable, so each level's frontier is
      constrained by the levels above it. Answer tuples are projections
      of the full join, deduplicated as rows are emitted. Empty for
      legacy plans. *)

  val pp : t Fmt.t
end

(** A fact set prepared for repeated plan runs: per-relation row-major
    argument-id matrices plus sorted row permutations, built lazily per
    (relation, key order) under a per-view mutex, so pool workers can
    share one view. The CQ/UCQ entry points below cache views per fact
    set (physical identity, small LRU) — repeated queries against one
    instance amortize the sort the same way the boxed engine amortizes
    its join index. *)
module Prepared : sig
  type t

  val make : Fact_set.t -> t
  val fact_set : t -> Fact_set.t
end

val run :
  ?guard:Guard.t ->
  Plan.t ->
  Prepared.t ->
  (Term.t list list, Term.t list list) Guard.outcome
(** Execute a plan: the distinct tuples of values of the plan's unbound
    answer variables (in [Cq.free] order), sorted as {!Cq.answers}
    sorts. Guard checkpoints run at {!Guard.poll_mask} spacing on the
    seek counter and one fuel unit is drawn per emitted tuple; a trip
    salvages the tuples found so far — every one is a real answer
    (sound, possibly incomplete). *)

(** {1 CQ / UCQ evaluation}

    Drop-in equivalents of [Cq.holds]/[Cq.answers]/[Ucq.boolean_holds],
    executing through plans (or through the legacy engine when
    {!eval_enabled} is off — results are identical either way). *)

val answers : ?guard:Guard.t -> Cq.t -> Fact_set.t -> Term.t list list
(** All distinct answer tuples, like {!Cq.answers}. On a guard trip the
    partial (sound) tuple list is returned; use {!answers_outcome} to
    observe the trip. *)

val answers_outcome :
  ?guard:Guard.t ->
  Cq.t ->
  Fact_set.t ->
  (Term.t list list, Term.t list list) Guard.outcome

val holds : Cq.t -> Fact_set.t -> Term.t list -> bool
(** [holds q f tuple], like {!Cq.holds}. Raises [Invalid_argument] on an
    arity mismatch. *)

val boolean_holds : Cq.t -> Fact_set.t -> bool

val ucq_answers : ?guard:Guard.t -> Ucq.t -> Fact_set.t -> Term.t list list
(** Distinct answers of the union, evaluated disjunct by disjunct over
    one shared {!Prepared} view with early cross-disjunct dedup. *)

val ucq_answers_outcome :
  ?guard:Guard.t ->
  Ucq.t ->
  Fact_set.t ->
  (Term.t list list, Term.t list list) Guard.outcome

val ucq_holds : Ucq.t -> Fact_set.t -> Term.t list -> bool
val ucq_boolean_holds : Ucq.t -> Fact_set.t -> bool

(** {1 Chase trigger matching}

    The semi-naive trigger enumeration, moved verbatim from the chase
    engine: the {e order} in which triggers are produced names the fresh
    nulls of Definition 4, so these searches are pinned to the
    register-machine engine ({!Homomorphism.iter_multi}) whose
    enumeration order the QCheck differentials fix — the leapfrog join
    visits solutions in sorted-id order instead and must never be used
    here. Centralizing them in the plan layer retires the last matcher
    that lived outside it. *)
module Match : sig
  (** One independent round of a rule's semi-naive trigger enumeration:
      seeded by a delta fact at body position [k], by a new domain
      element at domain-variable position [i], or the one-shot firing of
      a fully ground rule. *)
  type part = Delta_seed of int | Dom_seed of int | Ground

  val rule_parts : Tgd.t -> old_is_empty:bool -> part list

  val part_triggers :
    Tgd.t ->
    part ->
    old_facts:Fact_set.t ->
    delta:Fact_set.t ->
    full:Fact_set.t ->
    old_dom_list:Term.t list ->
    new_dom_list:Term.t list ->
    full_dom_list:Term.t list ->
    (Homomorphism.mapping -> unit) ->
    unit
  (** Enumerate the triggers of [rule] in [part] that use at least one
      new ingredient, in the exact order the sequential engine fires
      them (no duplicates across parts). *)
end

(** {1 Containment probe} *)

val probe_leapfrog_min : int
(** Target size, in facts, from which the containment probe runs the
    leapfrog join; below it the probe declines. *)

val containment_probe : ?force_leapfrog:bool -> unit -> Eval_hook.probe
(** The probe registered in {!Eval_hook} at initialization. A target
    with fewer than {!probe_leapfrog_min} facts, a pattern the join
    cannot represent, or {!set_eval} off answer [None] before any plan
    is compiled; otherwise the verdict is the leapfrog join's.
    [~force_leapfrog:true] drops the size test, for measuring the
    leapfrog arm on small targets ([set_eval false] measures the
    register machine's). *)

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
val reset_counters : unit -> unit
