(** Fact sets: database instances and (finite prefixes of) chase structures.

    A fact set is an immutable set of atoms together with indexes used by
    the homomorphism engine: a per-relation index and a
    (relation, position, term) index for selective joins, the latter keyed
    exactly by the hash-consed term id.

    Indexes are maintained {e incrementally}: the index is a persistent
    stack of frozen (immutable after construction) hash-table layers,
    structurally shared between a set and the sets derived from it. It
    grows one way only — a disjoint union ({!union_disjoint}, which
    [add] and [union] go through) puts the delta's layers in front of
    the base's stack, lazily — so a chase whose [full] set grows stage by
    stage pays O(|delta|) indexing per stage. Removals and the other set
    operations ([diff], [remove], [inter], [restrict]) return an
    unindexed set whose index is rebuilt on first use; a [diff] that
    removes nothing returns its operand, index and views included.

    A layer stores each fact once: per relation, its [Atom.t] and its
    row of argument term ids, with sorted row {e postings} per
    (position, term).

    A set also owns the sorted views the leapfrog join reads
    ({!sorted_view}), built on first use and freed with the set. *)

type t

val empty : t
val of_list : Atom.t list -> t
val of_set : Atom.Set.t -> t
val to_set : t -> Atom.Set.t
val atoms : t -> Atom.t list
val cardinal : t -> int
val is_empty : t -> bool
val mem : Atom.t -> t -> bool
val add : Atom.t -> t -> t
val remove : Atom.t -> t -> t
val union : t -> t -> t

val union_disjoint : t -> t -> t
(** [union], for callers that already know the operands share no atom
    (e.g. a chase stage's freshly-derived delta): when either side is
    indexed, the result's index is that side's extended by the other's
    layers, built on first use. [union] reduces to it by first dropping
    the atoms the base already holds. The precondition is not checked. *)

val diff : t -> t -> t
val inter : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool

val domain : t -> Term.Set.t
(** The active domain [dom(F)]: every term appearing in some fact. Terms are
    treated atomically (a Skolem term is one element; its subterms are not
    domain members unless they appear in argument position themselves). *)

val by_rel : t -> Symbol.t -> Atom.t list
(** All facts with the given relation symbol. *)

val sorted_view : t -> Symbol.t -> int array -> int array * int * int array
(** [sorted_view t rel kpos] is [(ids, width, perm)]: the facts of [rel]
    as a row-major id slab [ids] of rows of [width] ints
    ([ids.(row * width + pos)] is the id of argument [pos]; a nullary
    relation gets width-1 rows), newest index layer first, in the
    {!by_rel} order, and the row permutation [perm] sorted
    lexicographically along the argument positions [kpos] (ties by
    row). Built on first use and kept in [t]
    for its lifetime: a later call with the same [rel] and [kpos] returns
    the same arrays. A relation held in one index layer uses that
    layer's slab without a copy; one spread over several layers is
    concatenated once and shared by its key orders. Sets derived from
    [t] start with no views. Safe to call from several domains. Forces
    the index. Do not mutate the arrays. *)

val iter_join_candidates :
  t ->
  Symbol.t ->
  bound_pos:int array ->
  bound_ids:int array ->
  off:int ->
  nb:int ->
  (Atom.t array -> int array -> int -> unit) ->
  unit
(** The compiled join engine's candidate enumeration: [f atoms ids row]
    for facts of [rel], where [atoms] is an index layer's fact table and
    [ids] its row-major argument-id slab ([ids.(row * arity + pos)] is
    the id of argument [pos] of [atoms.(row)]; frozen storage, do not
    mutate), restricted by [nb] constraints
    [(bound_pos.(off + i), bound_ids.(off + i))] for [i < nb] given as
    bare (position, term id) pairs in caller-owned arrays — no per-probe
    allocation. The visited rows are a
    superset of the facts meeting every constraint (callers re-check
    every position on the [ids] slab); once filtered, they come in the
    {!by_rel} order whichever constraint seeds a layer's lookup. With two
    or more constraints and a large enough seed, the two smallest sorted
    postings are merge-intersected before rows reach the callback. *)

val atoms_with_term : t -> Term.t -> Atom.t list
(** Every atom with the given term in some argument position, in the
    same order a [List.filter] over [atoms] would produce. Answered from
    the (relation, position, term) join index — one bucket probe per
    (layer, relation, position) instead of a scan of the whole set.
    Forces the index. *)

val restrict : t -> Term.Set.t -> t
(** The induced substructure on the given terms: keep the atoms whose every
    argument is in the set (Definition 36's "ban the other terms"). *)

val pp : t Fmt.t

(** {1 Index instrumentation}

    Process-wide counters of index maintenance work, for the chase engines'
    [stage_stats] and the bench harness. Thread-safe. *)

type counters = {
  builds : int;  (** full index constructions *)
  built_atoms : int;  (** atoms indexed by full builds *)
  extends : int;  (** incremental index extensions *)
  delta_atoms : int;  (** atoms added to an existing index *)
  posting_probes : int;  (** join-index lookups (per layer, per constraint) *)
  posting_intersections : int;
      (** sorted-posting merge-intersections in {!iter_join_candidates} *)
  views : int;  (** sorted permutations built by {!sorted_view} *)
}

val counters : unit -> counters
