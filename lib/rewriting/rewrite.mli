(** UCQ rewriting by saturation (Theorem 1).

    Starting from the input query, repeatedly apply one-step piece
    rewritings through every rule, keeping the set minimal (no disjunct
    implied by another). If saturation completes, the result is the unique
    minimal [rew(q)] of Exercise 14 and certifies bounded derivation depth
    *for this query*; running out of budget is the experimental signature of
    a non-BDD theory (or an undersized budget — the verdict says which
    resource was exhausted). *)

open Logic

type budget = {
  max_disjuncts : int;
  max_atoms_per_disjunct : int;
  max_steps : int;  (** worklist pops *)
}

val default_budget : budget

type outcome =
  | Complete
      (** Saturation reached a fixpoint: the UCQ is the full rewriting. *)
  | Disjunct_budget
      (** The UCQ grew past [max_disjuncts]. *)
  | Size_budget  (** Some disjunct exceeded [max_atoms_per_disjunct]. *)
  | Step_budget  (** The worklist was popped [max_steps] times. *)
  | Guard_exhausted of Guard.cause
      (** The run's {!Guard.t} tripped (deadline, fuel, memory ceiling,
          or cancellation). *)
(** In every non-[Complete] case the UCQ is still sound: every disjunct
    was produced by piece-rewriting steps, so the partial rewriting is
    entailed by the full one. The three [_budget] constructors name the
    {!budget} field that tripped — something {!Guard.Fuel} cannot say,
    which is why the CLI ([rewrite], [resume]) and the experiment tables
    print them; {!outcome_of_result} folds all four into one
    {!Guard.outcome} for callers that only need complete-or-not. *)

type result = {
  ucq : Ucq.t;
  outcome : outcome;
  steps : int;
  generated : int;  (** one-step rewritings produced, pre-minimization *)
  containment_checks : int;
      (** CQ-implication tests spent on minimization (the quadratic part) *)
  dedup_hits : int;
      (** candidates dropped by the run-local canonical-id dedup without
          any containment check (each saves up to [|ucq|] checks). Not
          [kernel_stats.totals.deduped], which also counts the candidates
          the store found subsumed *)
  index_pruned : int;
      (** disjunct pairs (and core-shrink candidates) refuted during this
          run by the subsumption-index fingerprints — anchor masks,
          occurrence-vector support, distance profiles — without running
          any containment search *)
  component_splits : int;
      (** containment checks this run whose pattern split into two or
          more Gaifman components and were solved per component *)
  kernel_stats : Saturation.Stats.t;
      (** the saturation kernel's counters for the run ([expanded] =
          frontier disjuncts expanded, i.e. [steps]; [admitted] =
          disjuncts that entered the store); per-round entries are not
          recorded — each round pops one disjunct *)
}

val rewrite :
  ?pool:Parallel.Pool.t ->
  ?guard:Guard.t -> ?budget:budget ->
  ?checkpoint:Checkpoint.sink ->
  Theory.t -> Cq.t -> result
(** Multi-head rules are compiled via {!Single_head.compile}; auxiliary
    disjuncts are dropped from the final UCQ (kept during saturation).
    Rules with empty bodies or domain variables are skipped by the piece
    rewriter — for [T_d]-style theories use the marked-query engine.

    The saturation is one {!Saturation.run} instance with a FIFO
    worklist: each kernel round pops one live disjunct, expands it, and
    folds its candidates into the minimal store in order, on the calling
    domain. There is one schedule, so the UCQ (its disjuncts and their
    order) and every other field of the result are functions of the
    theory, the query and the budget alone: no state carries from one
    run to the next. [pool] is ignored; the parameter stays only so
    that existing callers compile.

    The guard is checkpointed at every kernel round boundary and charged
    one fuel unit per expanded live disjunct, and polled every
    {!Guard.poll_mask}+1 containment checks inside the minimization, so
    deadline and memory trips surface promptly even when individual
    steps are containment-heavy.

    With [checkpoint], the saturation state (theory, query, store
    disjuncts, frontier) is snapshotted into the sink's directory at its
    round cadence and at any non-complete finish — see {!resume}. *)

val checkpoint_kind : string
(** The [Checkpoint.Snapshot.kind] tag rewriting snapshots carry:
    ["rewrite"]. *)

val resume :
  ?guard:Guard.t -> ?budget:budget ->
  ?checkpoint:Checkpoint.sink ->
  Checkpoint.Snapshot.t -> result
(** Continue a rewriting saturation from a (validated) snapshot. The
    store is preloaded without containment checks (a checkpointed store
    is already pairwise non-subsuming and minimization is monotone), the
    budget defaults to the snapshot's recorded one, and [steps] counting
    continues from the snapshot. The resumed run's completed UCQ is
    {!Ucq.equivalent} to an uninterrupted run's — not necessarily
    syntactically identical: canonical CQ ids are process-local, so the
    candidate dedup reseeds from the decoded store and frontier and some
    duplicate candidates take the (verdict-identical) containment path
    instead; [steps] and the counter totals may differ accordingly.

    Raises [Invalid_argument] on a snapshot of a different kind and
    [Checkpoint.Codec.Error] on undecodable content. *)

val outcome_of_result : result -> guard:Guard.t -> (result, result) Guard.outcome
(** The unified verdict for a finished run: [Complete] on saturation,
    otherwise [Exhausted] carrying the same result as partial output, the
    trip cause (the three [_budget] outcomes map to {!Guard.Fuel}), and
    the guard's progress counters. *)

val rs : ?budget:budget -> Theory.t -> Cq.t -> int option
(** [rs_T(q)] of Section 7: the maximal disjunct size of the full rewriting;
    [None] when the rewriting did not complete within budget. *)

val split_batch : int -> 'a list -> 'a list * 'a list
(** [split_batch n l = (first n elements of l, the rest)], both in order.
    Tail-recursive — safe on frontiers of arbitrary length. Exposed for
    testing. *)
