(** Marked queries (Definition 47) over the layered signature of [T_d]
    and [T_d^K].

    A marked query is a CQ over binary level relations [I_1 .. I_K]
    ([T_d] is the instance [K = 2] with [I_2 = R] and [I_1 = G]) together
    with a set [V] of *marked* variables — those that must be matched to
    original-instance constants (Definition 48). Answer variables are
    always marked.

    Answer aliasing: the fuse operations can force two answer variables
    together; we keep the original answer tuple shape and track each answer
    variable's current representative, so such disjuncts stay first-class
    (they answer only tuples with the corresponding components equal). *)

open Logic

type analysis
(** The marking-independent analysis of a body for {!is_properly_marked}
    (directed cycles, same-level in-edge groups, in-level patterns),
    computed by {!make} on the body's variables numbered locally and
    shared by every marking made with {!remark}. *)

type t = private {
  levels : Symbol.t array;
      (** [levels.(i)] is [I_{i+1}]; length [2 <= K < Sys.int_size]. *)
  free : (Term.t * Term.t) list;
      (** (original answer variable, current representative). *)
  atoms : Atom.t list;  (** binary atoms over [levels]; may be empty *)
  marked : Term.Set.t;  (** contains every representative of [free] *)
  analysis : analysis;
}
(** A stored query holds its body, its marking and the body's analysis,
    and no other derived state: variable sets and the code of
    {!class_key} are rebuilt by the call that needs them and dropped
    after it. The marked process keeps one query per isomorphism class
    for the whole run, so anything cached here is paid per class. *)

val make :
  levels:Symbol.t array ->
  free:(Term.t * Term.t) list ->
  marked:Term.Set.t ->
  Atom.t list ->
  t
(** Validates: atoms binary over [levels], representatives marked and (when
    atoms are non-empty) occurring in the atoms, marked set within the
    variables. *)

val remark : t -> marked:Term.Set.t -> t
(** [remark q ~marked]: [q]'s body under another marking, validated as
    {!make} does. It shares [q]'s body analysis instead of recomputing
    it. *)

val vars : t -> Term.t list
val level_of : t -> Atom.t -> int
(** Index [i] such that the atom's relation is [levels.(i)]. *)

val atoms_at_level : t -> int -> Atom.t list
val is_totally_marked : t -> bool
val is_trivial : t -> bool
(** No atoms left: satisfied by any answer tuple over the instance domain
    (respecting aliases). *)

val is_properly_marked : t -> bool
(** The conditions of Observation 50, generalized to [K] levels:
    (i) an edge into a marked variable starts at a marked variable;
    (ii) every variable on a directed cycle is marked;
    (iii) two same-level edges into one variable: markings of the sources
    agree;
    (iv) [K > 2] only: an unmarked variable's in-edges use at most two
    levels, and when two, they are adjacent ([I_{i+1}] and [I_i]) — any
    other in-pattern cannot be realized by a chase-invented term. *)

val is_live : t -> bool
(** Properly marked, not totally marked, and non-trivial. *)

val all_markings : levels:Symbol.t array -> Cq.t -> t list
(** [S_0]: every marking [V] with [free subseteq V], restricted to the
    properly marked ones. *)

val to_cq : t -> Cq.t option
(** The underlying CQ with the representatives as answer variables;
    [None] when trivial (no atoms). *)

val class_key : t -> int list * string
(** The isomorphism class, as a code and not an interned id: for each
    answer position the first position sharing its representative (the
    alias pattern), and the {!Cq.canon_code} of the body. That code
    writes each atom as its level's symbol id and its two arguments; a
    representative is its position among the distinct representatives,
    every other variable a vertex; the initial partition is the marked
    vertices, then the unmarked ones, and its two cell sizes head the
    code. A trivial query's code is just the two sizes. Two marked
    queries over the same levels share the key exactly when they are
    equal up to renaming of variables, markings and answer aliasing
    included. Nothing is built but the code, and nothing enters the
    process-wide table behind {!Cq.canon_id}. *)

val aliased : t -> bool
(** Two answer variables share a representative. *)

val tuple_admissible : t -> Term.t list -> (Term.t * Term.t) list option
(** Check an answer tuple against the aliasing structure: [None] when two
    aliased positions disagree; otherwise the binding of each
    representative. *)

val holds : Chase.Engine.run -> t -> Term.t list -> bool
(** Definition 48: a homomorphism into the chase prefix mapping marked
    variables into [dom(D)] and unmarked ones outside it, with the answer
    tuple respected. *)

val pp : t Fmt.t
