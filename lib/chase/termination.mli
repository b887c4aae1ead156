(** Termination analyzers: core termination (FES, Definition 18),
    all-instances termination (Definition 21), and the uniform-BDD constant
    of Observation 27. All are undecidable in general; these are budgeted
    semi-decision procedures evaluated over instance families. *)

open Logic

type verdict = Holds of int | Budget_exhausted
(** [Budget_exhausted] is the negative signal of every analyzer here:
    no witness was found before a resource ran out — a [max_*] cap or a
    {!Guard} trip (deadline, fuel, memory, cancellation). None of these
    properties is finitely refutable on one instance, so there is no
    outright "fails" verdict. To distinguish the cause, pass an explicit
    [?guard] and inspect [Guard.status] after the call. *)

val core_terminates_on :
  ?pool:Parallel.Pool.t ->
  ?guard:Guard.t ->
  ?max_c:int -> ?lookahead:int -> ?max_atoms:int ->
  Theory.t -> Fact_set.t -> verdict
(** [Holds c]: stage [c] of the chase on this instance contains a model
    ([c = c_{T,D}] up to the prefix-witness approximation). *)

val all_instances_terminates_on :
  ?pool:Parallel.Pool.t ->
  ?guard:Guard.t ->
  ?max_depth:int -> ?max_atoms:int -> Theory.t -> Fact_set.t -> verdict
(** [Holds n]: the chase saturates at stage [n] on this instance. *)

val uniform_bound_on :
  ?pool:Parallel.Pool.t ->
  ?guard:Guard.t ->
  ?max_c:int -> ?lookahead:int -> ?max_atoms:int ->
  Theory.t -> Fact_set.t list -> (int option * (Fact_set.t * int) list)
(** For each instance, [c_{T,D}]; the first component is the maximum when
    every instance succeeded ([None] when some budget was exhausted). By
    Observation 27, a uniform bound across *all* instances witnesses UBDD;
    across a family it is the experimental series of E4/E8. A guard trip
    mid-family stops probing further instances — the per-instance list then
    covers a prefix of the family. *)
