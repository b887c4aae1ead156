(** Hash-consed first-order terms.

    Terms are constants, variables, or Skolem-function applications
    (Definition 4). Hash-consing is essential here: under the (grid) rule of
    [T_d] the *tree* size of a Skolem term doubles at every chase level, but
    the number of distinct subterms stays small; with hash-consing, equality
    and comparison are O(1) and the chase stays polynomial in the number of
    distinct terms.

    Because terms are globally hash-consed, structurally equal terms built
    anywhere in the program are physically equal — this is what makes
    Observation 8 ("Ch(T, F) = Ch(T, D)" literally, as sets) hold in code,
    which the locality analyzers rely on. *)

type t = private { id : int; view : view }

and view =
  | Const of string
  | Var of string
  | App of { fn : string; args : t list }
      (** A Skolem term: [fn] is the canonical Skolem-function name derived
          from the head isomorphism type (Definition 4), [args] the frontier
          images. *)

val const : string -> t
val var : string -> t
val app : string -> t list -> t

val compare : t -> t -> int
(** Total order by hash-consing id: O(1), consistent within a run. *)

val equal : t -> t -> bool
val hash : t -> int

val of_id : int -> t
(** The term whose hash-consing id is [id] — the inverse of [hash] /
    [t.id], in O(1). The flat-arena join engine carries bare term ids
    through its registers and only rematerializes terms for surviving
    solutions. Raises [Invalid_argument] on an id no term was ever
    interned with. *)

val is_var : t -> bool
val is_const : t -> bool
val is_functional : t -> bool
(** True exactly for [App] terms, i.e. chase-invented (Skolem) terms. *)

val depth : t -> int
(** Skolem-nesting depth: constants and variables have depth 0. Memoized
    per call, like {!dag_size}: shared subterms are visited once. *)

val dag_size : t -> int
(** Number of distinct subterms (the honest size of a hash-consed term). *)

val vars : t -> t list
(** The variables occurring in the term, each once, in first-occurrence
    order. *)

module Int_map : Map.S with type key = int

val subst : t Int_map.t -> t -> t
(** [subst m t] replaces every subterm whose id is bound in [m] (in
    practice: variables) by its image, sharing-aware (memoized per call;
    a variable or constant is one lookup). *)

val pp : t Fmt.t

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

val dedup : t list -> t list
(** The list without repeats, each term at its first occurrence. *)

val subst_of_bindings : (t * t) list -> t Int_map.t
(** Convenience: build a substitution keyed by term id from
    [(variable, image)] pairs. *)
