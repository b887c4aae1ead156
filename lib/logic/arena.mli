(** The flat atom arena: a Bigarray-backed, append-only int-packed store
    in which every interned atom is one contiguous span of a flat [int]
    array — [sym_id; arity; arg term ids...] — with O(1) id↔span lookup
    both ways. Every {!Fact_set} index table stores plain atom-id rows
    into this store,
    and the compiled homomorphism join decodes arguments with two array
    reads instead of chasing [Atom.t]/[Term.t] pointers.

    Atom ids are dense interning indices (0, 1, ... in first-intern
    order), valid for the arena's lifetime; the store never shrinks.
    Interning is mutex-protected; decoding is lock-free. *)

type t

val create : ?initial:int -> unit -> t
(** A fresh, empty arena ([initial] is the initial capacity in ints).
    Mainly for tests; production code shares {!global}. *)

val global : t
(** The process-wide arena used by {!Fact_set}'s arena-mode layers. *)

val intern : t -> Atom.t -> int
(** The arena id of [atom], appending a new span on first sight —
    hash-consing at the atom level (equal atoms get equal ids). *)

val to_atom : t -> int -> Atom.t
(** The boxed atom of an arena id, O(1). Raises [Invalid_argument] on an
    id this arena never issued. *)

val base : t -> int -> int
(** Span base offset of an atom id (the [sym_id] slot's index). *)

val rel_id : t -> int -> int
(** [Symbol.id] of the atom's relation: first slot of the span. *)

val arity : t -> int -> int
(** Argument count: second slot of the span. *)

val arg : t -> int -> int -> int
(** [arg a id pos] is the hash-consed term id of argument [pos]. No
    bounds check beyond the Bigarray's own; [pos] must be < arity. *)

val spans : t -> int
(** Number of interned atoms. *)

val ints : t -> int
(** Total ints of span storage in use. *)

type stats = { spans : int; ints : int; bytes : int }

val stats : t -> stats
(** Snapshot of the arena's size — surfaced by [--stats] and the bench
    stage tables. *)
