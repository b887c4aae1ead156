(** Conjunctive queries [phi(ybar) = exists xbar. beta(xbar, ybar)].

    The body is a *set* of atoms (duplicates are collapsed); the size
    [|phi|] is the number of body atoms (Section 2). Free variables are the
    answer variables [ybar]; every other variable is implicitly
    existentially quantified. *)

type t = private {
  free : Term.t list;
  atoms : Atom.t list;
  mutable canon_id : int;  (** see [canon_id]; [-1] until first computed *)
  mutable fs : Fact_set.t option;  (** cached [as_fact_set] view *)
  mutable vset : Term.Set.t option;  (** cached [var_set] *)
  mutable sig_mask : int;  (** cached [sig_mask]; [0] until first computed *)
  mutable anchors : int;  (** cached [anchor_mask]; [-1] until computed *)
  mutable profile : int array option;  (** cached [hom_profile] *)
  mutable ecomps : Atom.t list list option;
      (** cached [body_components] *)
  mutable progs : Homomorphism.program array option;
      (** cached [hom_programs] *)
}

val make : free:Term.t list -> Atom.t list -> t
(** Raises [Invalid_argument] if a free "variable" is not a [Term.var], if
    the body is empty, or if a free variable does not occur in the body. *)

val free : t -> Term.t list
val atoms : t -> Atom.t list
val size : t -> int
(** Number of body atoms ([|phi(ybar)|] in the paper). *)

val vars : t -> Term.t list
(** All variables of the query, free first, in deterministic order. *)

val var_set : t -> Term.Set.t
(** [vars] as a set, computed once per query and cached — the containment
    hot path needs it on every homomorphism problem. *)

val sig_mask : t -> int
(** A 61-bit fingerprint of the body's relation symbols (bit
    [Symbol.id mod 61]). If [sig_mask q land lnot (sig_mask q') <> 0] then
    some relation of [q] does not occur in [q'], so no homomorphism
    [q -> q'] exists — an O(1) necessary condition for containment.
    Cached. *)

val anchor_mask : t -> int
(** A 61-bit fingerprint of the body's {e anchors}: rigid terms
    (constants, functional terms, answer variables — the latter tagged by
    their position in the free list) at their (relation, position) slots.
    A homomorphism fixing answer variables positionally maps every anchor
    of its pattern to the identical anchor in its target, so
    [anchor_mask from land lnot (anchor_mask into) <> 0] refutes any
    homomorphism [from -> into]. Cached. *)

val hom_profile : t -> int array
(** Sorted packed Gaifman-distance profile of the body: for each answer
    variable, its minimal distance (in the graph over all body terms) to
    each (relation, position) slot, plus the pairwise distances between
    answer variables. See [hom_feasible]. Cached. *)

val hom_feasible : from:t -> into:t -> bool
(** Conjunction of O(1)/near-linear necessary conditions for a
    homomorphism [from -> into] fixing answer variables positionally
    (the test [Containment.implies into from] performs): relation
    support ([sig_mask]), anchors ([anchor_mask]) and distance-profile
    domination — homomorphisms map Gaifman edges to edges, so no
    distance may grow. [false] certifies there is no homomorphism;
    [true] says nothing. Note that atom and per-predicate occurrence
    {e counts} are deliberately not compared: a homomorphism may collapse
    atoms, so counts of [from] bound nothing in [into]. *)

val body_components : t -> Atom.t list list
(** Connected components of the body atoms under shared existential
    variables in argument position (answer variables, constants and
    functional terms are rigid for the match and do not couple atoms).
    Atoms keep their body order inside each component; components are
    ordered by first atom. A homomorphism fixing the rigid terms exists
    iff one exists per component independently. Cached. *)

val hom_programs : t -> Homomorphism.program array
(** The containment search of this query as a pattern: one compiled
    program per body component ([body_components]), smallest first (a
    stable sort by atom count), each with the answer variables
    pre-bound in [free] order and every variable flexible. Compiled on
    first use and cached, so each query compiles its search once however
    many targets it is checked against. *)

val exist_vars : t -> Term.t list
val is_boolean : t -> bool
val gaifman : t -> Gaifman.t
val is_connected : t -> bool

val as_fact_set : t -> Fact_set.t
(** The body "seen as a structure" (footnote 12): variables as domain
    elements. The view (and its lazily built join index) is computed once
    per query and cached. *)

val holds : t -> Fact_set.t -> Term.t list -> bool
(** [holds q f tuple]: does [f |= q(tuple)]? The tuple instantiates the free
    variables positionally. *)

val boolean_holds : t -> Fact_set.t -> bool
(** Satisfaction with the free variables (if any) also treated as
    existential — used when the paper evaluates [phi(abar)] with [abar]
    already substituted into the body. *)

val answers : t -> Fact_set.t -> Term.t list list
(** All distinct answer tuples over the active domain of [f]. *)

val subst : Term.t Term.Int_map.t -> t -> t
(** Apply a substitution to body and free variables; a free variable mapped
    to a non-variable is dropped from the free list (it became a constant
    answer position), mirroring the instantiation [phi(abar)]. *)

val refresh : ?prefix:string -> t -> t * Term.t Term.Int_map.t
(** Rename every variable (free and existential) to a fresh name; returns
    the renaming. Used to avoid capture in the rewriting engine. *)

val iso_key : t -> string
(** A string render of the query, invariant under renaming of bound
    variables. Isomorphic queries share it, but non-isomorphic ones may
    too, so it decides nothing; it is kept as a digest line (the
    repository benchmark hashes a UCQ's sorted renders). Use
    {!canon_id} to compare queries. *)

val canon_id : t -> int
(** The interned id of the query's canonical code. Complete:
    [canon_id q1 = canon_id q2] holds exactly when [q1] and [q2] are
    isomorphic — equal up to renaming of bound variables, with answer
    variables corresponding by position and constants and ground terms
    kept. Every CQ isomorphism decision in the library is this
    comparison: {!Containment.isomorphic}, the rewriting's dedup and the
    normalisation's nullary predicates. (The marked process's store
    compares marked queries by {!canon_code} through its own front end,
    [Marked_query.class_key], and interns nothing.)

    The code comes from a canonical labelling of the bound variables by
    individualisation-refinement with automorphism pruning; on queries
    whose colour refinement already separates every bound variable it
    is one refinement and one sort. Computed lazily and cached on the
    query; ids are process-wide and never reused. *)

val canon_code : int array array -> partition:int array array -> string
(** [canon_code templates ~partition]: the search behind {!canon_id},
    for other front ends. Each template is one atom as ints: a token
    [x >= 0] is literal, [x < 0] names the vertex [-x - 1]. [partition]
    is the initial ordered partition of the vertices [0 .. k-1], cell by
    cell. The code starts with the cell sizes, then lists the templates
    under a canonical labelling, vertex [v] written [4 * label(v) + 2].
    Two inputs share a code exactly when a bijection of their vertices
    that keeps each vertex in its cell carries one template set onto
    the other, provided the templates are distinct and their written
    form decodes: both front ends put the relation's id first and never
    write a literal argument token that is [2 mod 4]. The code is not
    interned. *)

val canon_table_stats : unit -> Hashtbl.statistics
(** Bucket statistics of the process-wide table that interns canonical
    codes for {!canon_id}. Codes are byte strings, which the stdlib hash
    reads whole, so codes that differ only far from their start still
    spread over the buckets; [max_bucket_length] is the longest chain a
    lookup can walk. Instrumentation only. *)

val pp : t Fmt.t

val fresh_var : ?prefix:string -> unit -> Term.t
(** A globally fresh variable. *)

val reserve_fresh : int -> unit
(** Advance the fresh-variable counter to at least [n]: every later
    {!fresh_var} name uses a number strictly greater than [n]. Snapshot
    decoding calls this for each re-interned [prefix#n] variable, so a
    resumed saturation can never mint a "fresh" variable that collides
    with (and silently captures) one carried in from the interrupted
    process's state. *)
