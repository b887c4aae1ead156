(** The rewriting process of Section 10: start from all proper markings of
    the input query ([S_0]), repeatedly replace a live query by the result
    of the applicable operation, until no live query remains. Termination
    is guaranteed by rank descent (Lemma 53) — the implementation
    additionally takes a step budget as a defensive bound and can record
    the rank trace so tests can verify the strict descent. *)

open Logic

type stats = {
  steps : int;
  cut_steps : int;
  fuse_steps : int;
  reduce_steps : int;
  dropped_improper : int;  (** results discarded as not properly marked *)
  dropped_unsat : int;  (** unsatisfiable in-edge patterns (K > 2 only) *)
}

type result = {
  rewriting : Ucq.t;
      (** The disjuncts from totally marked, non-aliased queries: the CQ
          part of [rew(phi)]. *)
  aliased : Marked_query.t list;
      (** Totally marked queries whose answer variables were fused. *)
  trivial : Marked_query.t list;
      (** Queries reduced to an empty body: true for every answer tuple over
          the instance domain (respecting aliases). *)
  complete : bool;  (** false iff the step budget or the guard tripped *)
  interrupted : Guard.cause option;
      (** the guard's trip cause when one fired; [None] for a clean finish
          or a plain [max_steps] trip. When set, [rewriting]/[aliased]/
          [trivial] hold the totally-marked queries collected so far — a
          sound partial rewriting (each disjunct is a genuine member of
          [rew(phi)]); only completeness is lost. *)
  stats : stats;
  kernel_stats : Saturation.Stats.t;
      (** the saturation kernel's counters for the run ([expanded] =
          process steps taken, [generated] = operation results produced,
          [admitted] = live queries enqueued); one kernel round per
          process step *)
  rank_trace : Rank.srk list option;
}

val run :
  ?guard:Guard.t ->
  ?max_steps:int -> ?record_ranks:bool ->
  ?on_step:
    (before:Marked_query.t ->
     classification:Operations.classification ->
     results:Marked_query.t list ->
     unit) ->
  ?checkpoint:Checkpoint.sink ->
  levels:Symbol.t array ->
  Cq.t -> result
(** Requires a connected query with at least one answer variable (the paper
    dispenses with boolean queries via the (loop) rule — see
    {!boolean_always_true}). Defaults: [max_steps = 200_000],
    [record_ranks = false]. The guard is checkpointed (one fuel unit) per
    process step; a trip abandons the live queue and reports the cause in
    [interrupted].

    With [checkpoint], the process state — the live worklist, the
    collected totally-marked and trivial queries, the step counters, and
    the {e full} iso-dedup store — is snapshotted into the sink's
    directory at its round cadence (the [min_interval_s] throttle
    matters here: the process commits one round per worklist pop) and at
    any non-complete finish — see {!resume}.

    The process is a strict one-pop-per-round FIFO worklist and runs on
    the calling domain: each step classifies its results against the
    iso-dedup store in order. It takes no pool. *)

val rewrite_td :
  ?pool:Parallel.Pool.t ->
  ?guard:Guard.t ->
  ?max_steps:int ->
  ?on_step:
    (before:Marked_query.t ->
     classification:Operations.classification ->
     results:Marked_query.t list ->
     unit) ->
  ?checkpoint:Checkpoint.sink ->
  Cq.t -> result
(** The process for [T_d] itself: levels [G; R]. [pool] is ignored: the
    process is sequential (see {!run}). The parameter stays only so that
    existing callers compile. *)

val rewrite_tdk :
  ?guard:Guard.t ->
  ?max_steps:int ->
  ?on_step:
    (before:Marked_query.t ->
     classification:Operations.classification ->
     results:Marked_query.t list ->
     unit) ->
  ?checkpoint:Checkpoint.sink ->
  int -> Cq.t -> result
(** The process for [T_d^K]: levels [I_1; ...; I_K]. *)

val checkpoint_kind : string
(** The [Checkpoint.Snapshot.kind] tag process snapshots carry:
    ["marked"]. *)

val resume :
  ?guard:Guard.t ->
  ?max_steps:int ->
  ?checkpoint:Checkpoint.sink ->
  Checkpoint.Snapshot.t -> result
(** Continue a rewriting process from a (validated) snapshot. The
    iso-dedup store is rebuilt from the snapshot's full seen-section (so
    no already-processed query is re-admitted), the collected results
    and step counters are restored verbatim, and the live worklist
    resumes in queue order; [max_steps] defaults to the snapshot's
    recorded value. The resumed rewriting has the same disjuncts in the
    same order as an uninterrupted run's, up to variable renaming (equal
    {!Cq.canon_id} lists), and the aliased and trivial sets have the
    same sizes. [record_ranks] and [on_step] are not available on resume
    — the pre-snapshot portion of a rank trace is not serialized — and
    [kernel_stats] covers only the resumed segment.

    Raises [Invalid_argument] on a snapshot of a different kind and
    [Checkpoint.Codec.Error] on undecodable content. *)

val boolean_always_true : unit -> unit
(** Documentation marker: due to (loop), every boolean CQ over the level
    signature holds in [Ch_1(T_d, D)] for every instance [D] — boolean
    queries need no rewriting. *)

val holds_via_rewriting :
  result -> Fact_set.t -> Term.t list -> bool
(** Evaluate the computed rewriting over an instance: true iff some CQ
    disjunct holds, some aliased disjunct holds with the tuple's equalities
    satisfied, or some trivial disjunct admits the tuple (all components in
    the active domain with the required equalities). *)
