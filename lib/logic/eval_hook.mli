(** Registration point for the executable-plan evaluation layer.

    [lib/eval] sits above [logic] in the library graph, but the
    containment solver (inside [logic]) wants to route its boolean
    homomorphism probes through the plan layer. This module breaks the
    cycle: [Eval] registers a probe closure here at module
    initialization, and [Containment] consults it — falling back to the
    in-library engine when nothing is registered (a program that never
    links [eval]) or when the A/B toggle is off.

    The toggle itself also lives here so that both sides of the layer
    boundary observe one switch: [Eval.set_eval] is this [set_eval]. *)

val set_eval : bool -> unit
(** A/B switch (same pattern as {!Fact_set.set_arena}): [false] restores
    the legacy boxed/register-machine matching everywhere the plan layer
    would otherwise run. Defaults to [true]. *)

val eval_enabled : unit -> bool

type probe =
  init:Term.t Term.Map.t ->
  flexible:Term.Set.t ->
  pattern:Atom.t list ->
  target:Fact_set.t ->
  bool option
(** A boolean existence probe: is there a homomorphism of [pattern] into
    [target] extending [init] on the [flexible] terms? [None] means the
    plan layer declines the problem (a target too small to repay a
    plan, or a pattern argument it cannot compile) and the caller must
    use its own engine. *)

val register : probe -> unit
(** Install the plan layer's probe (last registration wins). *)

val probe : unit -> probe option
