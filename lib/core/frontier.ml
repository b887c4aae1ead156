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
module Pool = Parallel.Pool
module Saturation = Saturation
module Guard = Guard
module Checkpoint = Checkpoint

module Parse = struct
  exception Error of string

  let wrap f x =
    try f x with Logic.Parser.Parse_error msg -> raise (Error msg)

  let theory ?name input = wrap (Logic.Parser.parse_theory ?name) input
  let instance input = wrap Logic.Parser.parse_instance input
  let query input = wrap Logic.Parser.parse_query input
  let rule input = wrap Logic.Parser.parse_rule input
end

let classify = Theories.Classes.classify
