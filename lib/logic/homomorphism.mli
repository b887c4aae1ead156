(** Homomorphism search.

    One engine serves every use in the paper: rule-body matching for the
    chase ([Hom(rho, F)] of Definition 5), conjunctive-query evaluation,
    CQ containment (Chandra-Merlin), retract search for cores, and the
    marked-query satisfaction of Definition 48 (via the [image_ok]
    filter).

    A problem maps the [flexible] terms of [pattern] into the active domain
    of [target]; all other pattern terms are fixed and must match literally.
    Terms are matched *atomically* — a Skolem term is a single domain
    element, never decomposed — which is the homomorphism notion of
    Section 2. *)

type mapping = Term.t Term.Map.t

type problem

val make :
  ?init:mapping ->
  ?image_ok:(Term.t -> Term.t -> bool) ->
  ?prefer:(Atom.t -> int) ->
  ?domain_vars:Term.t list ->
  flexible:Term.Set.t ->
  pattern:Atom.t list ->
  target:Fact_set.t ->
  unit ->
  problem
(** [image_ok v t] filters admissible images of flexible term [v];
    [domain_vars] are flexible terms that need not occur in [pattern] and
    are bound to arbitrary active-domain elements (the [dom(x)] pseudo-body
    of rules like (pins)). [init] pre-binds flexible terms (e.g. answer
    variables to an answer tuple). [prefer] ranks candidate facts (lower
    first) to steer which homomorphism is enumerated first — at each
    search node the candidates are stably sorted by rank, which biases
    the search order but never prunes. *)

val find : problem -> mapping option
val exists : problem -> bool
val iter : problem -> (mapping -> unit) -> unit
(** Enumerates every homomorphism (each total on flexible terms occurring in
    the pattern and on [domain_vars]). *)

val count : problem -> int

val iter_multi :
  ?init:mapping ->
  ?image_ok:(Term.t -> Term.t -> bool) ->
  ?prefer:(Atom.t -> int) ->
  flexible:Term.Set.t ->
  pattern:(Atom.t * Fact_set.t) list ->
  domain_bindings:(Term.t * Term.t list) list ->
  (mapping -> unit) ->
  unit
(** Generalized engine: each pattern atom carries its own target (the
    semi-naive chase partitions body atoms between old/delta/full stages)
    and each domain variable its own candidate pool. *)

val apply : mapping -> flexible:Term.Set.t -> Atom.t -> Atom.t
(** Apply a mapping to an atom, positionally and atomically: each argument
    that is flexible is replaced by its (required) image. *)

(** {1 Engine instrumentation}

    The search runs on a compiled register machine: flexible terms
    become int registers, pattern atoms compile to int slot arrays,
    candidates stream off the fact set's packed id slabs, and
    backtracking pops a trail — no allocation per search node (except
    the rank buffer of a [prefer]-steered node), terms rematerialized
    only for complete homomorphisms. These process-wide counters measure
    it; thread-safe. *)

type counters = {
  searches : int;  (** compiled-engine invocations *)
  nodes : int;  (** search nodes (seed selections) *)
  reg_ops : int;  (** register-machine slot checks *)
  solutions : int;  (** homomorphisms enumerated by the compiled engine *)
}

val counters : unit -> counters
