(** Atomic formulas [R(t1, ..., tk)] over arbitrary terms.

    An atom over constants/Skolem terms is a fact; an atom over variables is
    a query or rule-body atom. The same representation serves both, which is
    what lets query bodies be "seen as structures" (footnote 12 of the
    paper) without conversion. *)

type t = private { rel : Symbol.t; args : Term.t array }

val make : Symbol.t -> Term.t list -> t
(** Raises [Invalid_argument] on arity mismatch. *)

val rel : t -> Symbol.t
val args : t -> Term.t list
val arg : t -> int -> Term.t
val arity : t -> int
val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val terms : t -> Term.t list
(** Argument terms, each once, in positional order. *)

val vars : t -> Term.t list
(** Variables occurring (recursively) in the arguments, each once, in
    first-occurrence order. *)

val subst : Term.t Term.Int_map.t -> t -> t

val map_args : (Term.t -> Term.t) -> t -> t
(** Rebuild the atom with each argument imaged through [f]. Arity is
    preserved by construction, so no validation happens — this is the
    constructor of the chase's innermost loop. *)

val pp : t Fmt.t

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
