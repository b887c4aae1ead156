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
    each component is searched by the register machine
    ({!Homomorphism.iter_multi}). No other engine is consulted, so the
    verdict and its cost do not depend on which libraries a program
    links. *)

val equivalent : Cq.t -> Cq.t -> bool

val isomorphic : Cq.t -> Cq.t -> bool
(** Equality up to renaming of bound variables (free variables correspond
    positionally): [Cq.canon_id q1 = Cq.canon_id q2]. The canonical id is
    complete, so no search runs here beyond computing the two ids, each
    once per query. *)

val core_of_query : Cq.t -> Cq.t
(** Remove redundant body atoms until none is redundant: the core of the
    query, equivalent to the input. An atom is redundant when the query
    maps into itself without it, fixing the answer variables.

    One pass over the body atoms, in order, one redundancy check each.
    This removes exactly the atoms that restarting the scan from the
    first atom after every removal would remove, by this lemma: if [a]
    is redundant in [q] and [b] is not, then [b] is not redundant in
    [q \ {a}] — a homomorphism [q \ {a} -> q \ {a,b}] composed with
    one [q -> q \ {a}] would map [q] into [q \ {b}]. So the atoms
    before a removed one need no second check. *)

(** {1 Call count} *)

type memo_stats = { hits : int; misses : int; entries : int }

val memo_stats : unit -> memo_stats
(** A compatibility shim for readers of the counters of the containment
    memo this module no longer has; [benchmark/trace.ml] reports
    [hits + misses] as its containment-check count. [misses] is the
    number of {!implies} calls in the process so far (every
    {!equivalent} and {!core_of_query} check included); [hits] and
    [entries] are always 0. *)

(** {1 Decomposed solving} *)

type solver_stats = {
  splits : int;
      (** [implies] calls whose pattern split into >= 2 components *)
  prescreened : int;
      (** [implies] calls refuted by anchor/distance fingerprints alone,
          after passing the cheaper [sig_mask] test *)
}

val solver_stats : unit -> solver_stats
