(** The portfolio selector: route a theory to the cheapest sound engine.

    {!plan} weighs the {!Checkers} evidence into one strategy; {!execute}
    runs it and {e re-validates at run time} — a rewriting's answers are
    used only on a [Complete] outcome, a chase's only when it saturated,
    the marked process's only on a [complete] run — falling back to a
    budgeted chase otherwise. The [exact] flag on the returned answers is
    therefore trustworthy whatever the checkers claimed: an over-eager
    plan costs a fallback, never an unsound answer. This is the invariant
    the differential fuzzer ({!Fuzz}) cross-checks at scale. *)

open Logic

type strategy =
  | Ucq_rewriting
      (** rewrite the query to a UCQ (Theorem 1) and evaluate it directly
          over the instance — the FUS/BDD fast path *)
  | Terminating_chase
      (** chase to saturation (Datalog / weakly-acyclic theories) and
          read the certain answers off the universal model *)
  | Marked_process of int
      (** the Section 10 marked-query process over [K] levels (2 = [T_d]
          itself) — exact for [T_d]/[T_d^K], where neither the chase nor
          plain UCQ rewriting terminates *)
  | Budgeted_chase
      (** no class evidence: chase under the budget; answers are sound,
          exact only if saturation was reached *)

val strategy_name : strategy -> string
val pp_strategy : strategy Fmt.t

type plan = {
  strategy : strategy;
  reasons : string list;  (** the evidence behind the choice, for humans *)
  report : Checkers.report;
}

val plan :
  ?pool:Parallel.Pool.t ->
  ?guard:Guard.t ->
  ?probe:bool ->
  Theory.t ->
  plan
(** Routing, first match wins:
    + [T_d]/[T_d^K] shape — {!Marked_process} (the only exact engine
      there);
    + rewriter-compatible and linear, sticky, loop-restricted, or (with
      [~probe:true]) atomic-query certified — {!Ucq_rewriting};
    + Datalog or weakly acyclic — {!Terminating_chase};
    + otherwise {!Budgeted_chase}. *)

(** {1 Execution} *)

type answers = {
  tuples : Term.t list list;
      (** certain answers over the instance's active domain, sorted and
          deduplicated; a boolean query yields [[[]]] (holds) or [[]] *)
  exact : bool;
      (** the producing engine finished ([Complete] rewriting, saturated
          chase, complete marked process): [tuples] is exactly the
          certain answers. When [false] the tuples are sound (each one is
          entailed) but possibly incomplete. *)
  used : strategy;  (** the engine that actually produced [tuples] *)
  fell_back : bool;
      (** the planned engine did not finish and the budgeted chase took
          over *)
  attempts : (string * Saturation.Stats.t) list;
      (** per-engine kernel counters, in execution order — what
          [frontier portfolio --stats] prints *)
}

val execute :
  ?pool:Parallel.Pool.t ->
  ?guard:Guard.t ->
  ?budget:Rewriting.Rewrite.budget ->
  ?max_depth:int ->
  ?max_atoms:int ->
  plan ->
  Theory.t ->
  Fact_set.t ->
  Cq.t ->
  answers
(** Run the plan on one (instance, query) input. Defaults:
    [budget = Rewrite.default_budget], [max_depth = 40],
    [max_atoms = 200_000] for the chase legs. [pool] serves the chase
    legs only; the rewriting and marked-process legs are sequential. *)

(** {1 Single-engine arms (exposed for the differential fuzzer)} *)

val chase_arm :
  ?pool:Parallel.Pool.t ->
  ?guard:Guard.t ->
  ?max_depth:int ->
  ?max_atoms:int ->
  Theory.t ->
  Fact_set.t ->
  Cq.t ->
  Term.t list list * bool * Saturation.Stats.t
(** Certain answers through the chase: (normalized tuples, exact =
    saturated, kernel stats). *)

val rewriting_arm :
  ?guard:Guard.t ->
  ?budget:Rewriting.Rewrite.budget ->
  Theory.t ->
  Fact_set.t ->
  Cq.t ->
  Term.t list list * bool * Saturation.Stats.t
(** Certain answers through UCQ rewriting: exact iff the rewriting
    completed (tuples are [[]] otherwise). Callers must ensure
    {!Checkers.rewriter_compatible} — a [Complete] outcome on a theory
    with skipped rules is not a certificate. *)

val normalize_tuples : Term.t list list -> Term.t list list
(** Sort and deduplicate answer tuples — the comparison format every arm
    returns. *)

val equal_answers : Term.t list list -> Term.t list list -> bool
