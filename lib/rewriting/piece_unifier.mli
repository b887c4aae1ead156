(** One-step backward rewriting with piece unifiers (the engine behind
    Theorem 1's [rew] sets), for single-head TGDs under Skolem-chase
    semantics.

    A piece unifier of a query [q] with a rule [B -> exists w. H] picks a
    non-empty subset [A] of [q]'s atoms, unifies every atom of [A] with [H],
    and replaces [A] by [u(B)].  Admissibility (which encodes that Skolem
    terms are invented, mutually distinct, and absent from earlier chase
    stages): a unification class containing an existential variable of the
    rule must contain no constant, no answer variable, no frontier variable
    of the rule, no second existential variable, and no query variable that
    also occurs outside [A].

    Restrictions (documented in DESIGN.md): rules with empty bodies, with
    domain variables, or with multi-atom heads are not rewritten here —
    multi-head rules go through {!Single_head.compile} first, and the
    [T_d]-style rules are handled by the dedicated marked-query engine.
    Unifiers forcing two answer variables together, or an answer variable
    onto a constant, are skipped (CQ-with-equality specializations are out
    of scope). *)

open Logic

val one_step : Cq.t -> Tgd.t -> Cq.t list
(** All one-step rewritings of the query through the rule, {e not}
    reduced to their query cores: most candidates of a saturation are
    isomorphic to one seen before, so {!Rewrite} checks a candidate's
    canonical id first and computes {!Containment.core_of_query} only for
    new ones. Returns [[]] for rules this engine does not handle (empty
    body, domain variables, multi-atom head). *)

val one_step_theory : Cq.t -> Theory.t -> Cq.t list
