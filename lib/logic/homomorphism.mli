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

(** {1 Compiled searches}

    The one search engine, in two steps. [compile] turns a pattern into
    a program once; [run] searches it against targets, as often as the
    caller likes. {!iter_multi}, and through it every function above,
    is [compile] followed by [run]. *)

type program
(** A compiled pattern: registers for its flexible terms, the seed
    order, and each seed's slot codes. Only flat int arrays (and the seeds'
    relation symbols), so a program is cheap to keep; immutable, so one
    program may run on several domains at once.

    Order contract: at each depth the seed is the not-yet-matched
    pattern atom with the most bound positions (first maximum in
    pattern order). A position is bound when it holds a rigid term, a
    pre-bound term, or a register of a seed chosen above; so the whole
    seed sequence, and each depth's bound positions, are fixed here,
    from the pre-bound set, before any search runs. A seed's candidate
    facts are tried in {!Fact_set.by_rel} order. Entries that are the
    same physical atom are matched once. *)

val compile :
  ?domain_vars:Term.t list ->
  flexible:Term.Set.t ->
  bound:Term.t list ->
  Atom.t list ->
  program
(** [compile ~flexible ~bound pattern]. [bound] lists the flexible terms
    that every {!run} pre-binds, in the order of its [init] values; a
    term of [bound] that holds no register (not flexible, or in neither
    [pattern] nor [domain_vars]) is ignored. A domain variable is bound
    from its pool after the pattern matched. Registers are numbered by first occurrence: the flexible terms of
    [pattern] in order, then [domain_vars]. *)

val run :
  ?image_ok:(Term.t -> Term.t -> bool) ->
  ?prefer:(Atom.t -> int) ->
  ?pools:Term.t array array ->
  program ->
  targets:Fact_set.t array ->
  init:Term.t list ->
  (int array -> unit) ->
  unit
(** [run p ~targets ~init f] searches [p]: [targets.(i)] is the target
    of the [i]-th pattern atom (a one-element array serves every atom),
    [init] the images of [compile]'s [bound] terms by position, and
    [pools.(k)] the candidates of the [k]-th domain variable (one pool
    per domain variable). [f regs] is called at each homomorphism with
    the register file: [regs.(r)] is the term id bound to register [r]
    ([-1] for a register that is never bound). [regs] is scratch of this call: read it inside [f]
    only. [image_ok] and [prefer] are as for {!make}; [image_ok] is not
    applied to [init]. Each call allocates its own registers, trail and
    bound-id buffer, so runs of one program on several domains do not
    interfere. *)

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
    and each domain variable its own candidate pool. [compile] then
    [run], with the mapping rebuilt from the registers at each
    solution. *)

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
    it ({!run} calls); thread-safe. *)

type counters = {
  searches : int;  (** compiled-engine invocations *)
  nodes : int;  (** search nodes (seed selections) *)
  reg_ops : int;  (** register-machine slot checks *)
  solutions : int;  (** homomorphisms enumerated by the compiled engine *)
}

val counters : unit -> counters
