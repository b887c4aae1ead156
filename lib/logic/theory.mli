(** Theories (rule sets): finite sets of TGDs, with the syntactic
    classifications the paper discusses (Section 1). *)

type t = private { name : string; rules : Tgd.t list }

val make : ?name:string -> Tgd.t list -> t
val name : t -> string
val rules : t -> Tgd.t list
val signature : t -> Symbol.Set.t
val max_arity : t -> int
val is_binary : t -> bool
(** All predicates at most binary (Theorem 3's hypothesis). *)

val is_datalog : t -> bool
val is_linear : t -> bool
val is_guarded : t -> bool
val is_connected : t -> bool
val is_single_head : t -> bool
val is_frontier_one : t -> bool

val existential_rules : t -> Tgd.t list
(** [T_exists] of Appendix A. *)

val satisfied_in : t -> Fact_set.t -> bool
(** [F |= T]: plain first-order model check. *)

val union : t -> t -> t
val pp : t Fmt.t
