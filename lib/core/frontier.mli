(** Frontier — the public API of this library.

    Everything the paper "A Journey to the Frontiers of Query
    Rewritability" (PODS 2022) talks about, executable:

    {ul
    {- terms / atoms / fact sets / CQs / TGDs and a concrete syntax
       ([module Logic], re-exported here as {!Term}, {!Atom}, ... );}
    {- the semi-oblivious Skolem chase with provenance ({!Chase});}
    {- cores and (core-)termination ({!Cores}, {!Termination});}
    {- UCQ rewriting by piece unifiers ({!Rewrite}) and BDD probing
       ({!Bdd_probe});}
    {- locality / bd-locality / distancing analyzers ({!Locality},
       {!Distancing});}
    {- the marked-query rewriting process for [T_d] and [T_d^K]
       ({!Marked_process});}
    {- the Appendix A normalization pipeline ({!Normal_form},
       {!Ancestors});}
    {- the paper's theory zoo and instance generators ({!Zoo},
       {!Instances}, {!Classes}).}}

    A four-line quickstart — plan once per theory, then execute per
    (instance, query):
    {[
      let theory = Frontier.Parse.theory "Human(y) -> exists z. Mother(y,z)" in
      let d = Frontier.Parse.instance "Human(abel)" in
      let q = Frontier.Parse.query "(x) :- Mother(x, m)" in
      Frontier.Portfolio.(execute (plan theory) theory d q)
    ]} *)

(** {1 Re-exported substrate} *)

module Term = Logic.Term
module Symbol = Logic.Symbol
module Atom = Logic.Atom
module Fact_set = Logic.Fact_set
module Gaifman = Logic.Gaifman
module Cq = Logic.Cq
module Ucq = Logic.Ucq
module Containment = Logic.Containment
module Tgd = Logic.Tgd
module Theory = Logic.Theory
module Homomorphism = Logic.Homomorphism
module Render = Logic.Render

module Eval = Eval
(** The executable-plan evaluation layer: compiles CQs/UCQs into
    leapfrog-style worst-case-optimal joins over sorted per-column views
    and is the single entry point for answering a rewriting over data —
    every {!Portfolio} arm runs on it, as do the chase's trigger matching
    and the containment solver's existence probes. *)

module Chase_engine = Chase.Engine
module Entailment = Chase.Entailment
module Cores = Chase.Core_model
module Termination = Chase.Termination
module Chase_variants = Chase.Variants
module Explain = Chase.Explain

module Rewrite = Rewriting.Rewrite
module Piece_unifier = Rewriting.Piece_unifier
module Bdd_probe = Rewriting.Bdd
module Locality = Rewriting.Locality
module Distancing = Rewriting.Distancing
module Exercises = Rewriting.Exercises

module Marked_query = Marked.Marked_query
module Marked_process = Marked.Process
module Marked_rank = Marked.Rank

module Normal_form = Normalization.Normalize
module Ancestors = Normalization.Ancestry
module Crucial = Normalization.Crucial

module Zoo = Theories.Zoo
module Instances = Theories.Instances
module Classes = Theories.Classes

module Multiset = Order.Multiset
module Transform = Theories.Transform
module Generators = Theories.Generators

module Portfolio = Portfolio
(** The strategy portfolio (ROADMAP item 5): class checkers beyond
    {!Classes} (loop-restricted rules, a BDD probe, [T_d]-shape
    detection), the [plan]/[execute] auto-selector over the chase,
    rewriting, and marked-process engines, and the differential fuzzing
    harness with counterexample minimization ([frontier portfolio] /
    [frontier fuzz] in the CLI). [Portfolio.plan] / [Portfolio.execute]
    are the library's certain-answer path: rewrite-then-evaluate when a
    complete rewriting exists, the chase otherwise. A caller that wants
    one engine regardless of the plan calls
    [Portfolio.Strategy.chase_arm] or [Portfolio.Strategy.rewriting_arm]. *)

module Pool = Parallel.Pool
(** Domain pool; pass one to the [?pool] entry points
    ({!Portfolio.execute}, {!Chase_engine.run}, {!Chase_variants}, ...)
    to fan the chase sweeps out over OCaml 5 domains. The rewriting and
    marked-process engines are sequential. Results are independent of
    the domain count. *)

module Saturation = Saturation
(** The generic fixpoint kernel every saturation in this reproduction runs
    on: the chase stages, the rewriting worklist, the marked-query process,
    and the core/termination probes are all [Saturation.run] instances.
    Its {!Saturation.Stats} record is the uniform per-round counter format
    the CLI's [--stats] flags and the bench harness print. *)

module Guard = Guard
(** Process-wide resource governor: wall-clock deadlines, fuel accounts,
    live-heap ceilings, and cooperative cancellation, with a unified
    [(complete, partial)] outcome type. Pass one [Guard.t] to the [?guard]
    entry points ({!Portfolio.execute}, {!Chase_engine.run},
    {!Rewrite.rewrite}, {!Marked_process.run}, ...) to bound a whole
    pipeline — including its
    parallel fan-outs — by a single budget; every stage then degrades to a
    documented sound partial result instead of running away. *)

module Checkpoint = Checkpoint
(** Crash-safe durability: versioned, checksummed, atomically-written
    snapshots of saturation state, the {!Checkpoint.Codec} text encodings
    that make resumed chases bit-identical, and the
    {!Checkpoint.Supervisor} retry-with-resume loop. Pass a
    {!Checkpoint.sink} to {!Chase_engine.run}, {!Rewrite.rewrite}, or
    {!Marked_process.run} and resume with the corresponding [resume]
    entry point ([frontier resume] in the CLI). *)

(** {1 Parsing} *)

module Parse : sig
  exception Error of string

  val theory : ?name:string -> string -> Logic.Theory.t
  val instance : string -> Logic.Fact_set.t
  val query : string -> Logic.Cq.t
  val rule : string -> Logic.Tgd.t
end

(** {1 Classification} *)

val classify : Logic.Theory.t -> Theories.Classes.report
