(** CQ containment, equivalence, isomorphism, and query cores
    (Chandra-Merlin).

    Terminology note: the paper's "phi contains psi" is logical implication
    of answers. To avoid direction confusion we expose [implies]:
    [implies q1 q2] holds iff every answer of [q1] (over every structure) is
    an answer of [q2] — certified by a homomorphism from [q2] to [q1] that
    is the identity (positionally) on answer variables. *)

val implies : Cq.t -> Cq.t -> bool
(** [implies q1 q2]: answers(q1) is a subset of answers(q2) on every
    structure. Requires equally long free-variable lists.

    The certifying homomorphism search is prescreened by the fingerprint
    battery of {!Cq.hom_feasible}, decomposed into the connected
    components of the pattern's Gaifman graph (solved independently,
    smallest first, with early exit on the first failing component), and
    each component goes to the plan layer's probe ({!Eval_hook}) or, for
    targets it declines, to the register-machine search. *)

val implies_memo : Cq.t -> Cq.t -> bool
(** [implies] with the verdict memoized under the pair of canonical query
    ids ([Cq.canon_id] — sound by construction). Lock-free direct-mapped
    cache of packed [(id, id, verdict)] ints: safe and cheap to call from
    parallel rewriting domains. Semantically identical to [implies]. *)

val memo_probe : Cq.t -> Cq.t -> bool option
(** [memo_probe q1 q2] answers [implies q1 q2] {e only} when it can do so
    without search: physical equality, free-arity mismatch, equal
    canonical ids, or a live containment-cache entry. [None] means
    "unknown — compute it". Never runs the homomorphism solver and never
    writes the cache, so it is safe (and cheap) to call on every pair of
    a batch before fanning the residue out to a pool. Counts a cache hit
    when it answers from the table. *)

val equivalent : Cq.t -> Cq.t -> bool

val isomorphic : Cq.t -> Cq.t -> bool
(** Equality up to renaming of bound variables (free variables correspond
    positionally). *)

val core_of_query : Cq.t -> Cq.t
(** Remove redundant body atoms until none is redundant: the core of the
    query, equivalent to the input. *)

(** {1 Memoization instrumentation} *)

type memo_stats = { hits : int; misses : int; entries : int }

val memo_stats : unit -> memo_stats
val reset_memo : unit -> unit
(** Empty the containment cache and zero the hit/miss counters. *)

(** {1 Decomposed solving} *)

type solver_stats = {
  splits : int;
      (** [implies] calls whose pattern split into >= 2 components *)
  prescreened : int;
      (** [implies] calls refuted by anchor/distance fingerprints alone,
          after passing the cheaper [sig_mask] test *)
}

val solver_stats : unit -> solver_stats
val reset_solver_stats : unit -> unit
