(** Subsumption index over the disjuncts of an evolving UCQ.

    Stored disjuncts are keyed by cheap homomorphism-invariants — the
    signature fingerprint {!Cq.sig_mask}, the exact per-predicate
    occurrence vector (compared as a {e support}: a homomorphism may
    collapse atoms, so occurrence counts never bound the target's), and
    the anchor/distance profiles of {!Cq.hom_feasible} — so that "which
    stored disjuncts could subsume candidate [q]" and "which could [q]
    subsume" are answered by fingerprint probes before any backtracking
    search runs.

    Entries are kept in insertion order with a tombstone flag; the live
    disjuncts read newest-first, the disjunct order of an
    {!Ucq.add_minimal} fold.

    The containment test itself is passed in as [~implies] (the caller
    may wrap {!Containment.implies} to count or poll), keeping this
    module independent of {!Containment}. *)

type t

val create : unit -> t
val cardinal : t -> int
(** Number of live disjuncts. *)

val disjuncts : t -> Cq.t list
(** Live disjuncts, newest first. *)

val insert_minimal :
  t -> Cq.t -> implies:(Cq.t -> Cq.t -> bool) ->
  [ `Added of Cq.t list | `Subsumed ]
(** The indexed {!Ucq.add_minimal}: [`Subsumed] when a live disjunct
    covers [q] (probed newest-first; the index is untouched); otherwise
    kills every disjunct [q] covers, appends [q], and returns
    [`Added killed] with the killed disjuncts, oldest first. Only
    fingerprint-feasible pairs reach [implies]. *)

val add : t -> Cq.t -> unit
(** Append a disjunct unconditionally (the caller has already
    established minimality). *)

val pair_feasible : from:Cq.t -> into:Cq.t -> bool
(** {!Cq.hom_feasible} with the index's probe counters: the one-shot
    pair filter for list-based callers without a persistent index. *)

(** {1 Instrumentation} *)

type stats = {
  pairs : int;  (** disjunct pairs considered by index probes *)
  pruned : int;  (** pairs refuted by fingerprints alone *)
}

val stats : unit -> stats
