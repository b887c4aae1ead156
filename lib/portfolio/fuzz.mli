(** The differential fuzzing campaign: random theories, every applicable
    engine per sample, certain-answer cross-checks, and auto-minimized
    [.repro] counterexamples on disagreement.

    Each sample is deterministic in [(seed, index)]: the theory family
    cycles through the {!Theories.Generators} emitters, the instance and
    query are drawn from the same per-sample state, and samples run
    sequentially — a campaign at seed [s] is replayable fact-for-fact at
    any [-j] level (the pool only parallelizes inside the chase, whose
    results are pool-size independent).

    Three arms run on every sample:

    {ul
    {- the chase ({!Strategy.chase_arm}) — exact iff saturated;}
    {- UCQ rewriting ({!Strategy.rewriting_arm}) — only on
       {!Checkers.rewriter_compatible} theories, exact iff [Complete];}
    {- the portfolio ({!Strategy.execute} on {!Strategy.plan}) — exact
       per its own run-time validation.}}

    Two or more {e exact} arms must agree on the normalized certain
    answers; a mismatch is a disagreement, delta-debugged by
    {!Minimize.minimize} (the kept property: the arms still disagree)
    and written to a [.repro] file when a directory is given. An arm
    that raises is likewise a failure, minimized under "still raises". *)

open Logic

type family =
  | Linear
  | Datalog
  | Guarded
  | Sticky
  | Loop_restricted
  | Mixed  (** union of a linear and a Datalog theory *)

val family_name : family -> string

type sample = {
  index : int;
  family : family;
  triple : Minimize.triple;
}

val sample : seed:int -> int -> sample
(** The [index]-th sample of campaign [seed]; deterministic. *)

type arm = {
  arm : string;
  answers : Term.t list list;
  exact : bool;
}

type failure = {
  sample : sample;
  arms : arm list;  (** empty when the failure is a raised exception *)
  error : string option;  (** the exception, when one was raised *)
  minimized : Minimize.triple;
  repro_path : string option;  (** where the [.repro] was written *)
}

val run_sample :
  ?pool:Parallel.Pool.t ->
  ?guard:Guard.t ->
  sample ->
  arm list * Strategy.plan
(** The three arms (in order chase, rewriting when applicable,
    portfolio) and the plan the portfolio chose. *)

type outcome = {
  seed : int;
  samples : int;  (** samples actually run (a guard trip stops early) *)
  agreed : int;
  single_arm : int;  (** fewer than two exact arms: nothing to check *)
  failures : failure list;
  by_family : (string * int) list;
  by_strategy : (string * int) list;
      (** how often {!Strategy.plan} chose each strategy *)
  wall_s : float;
}

val write_repro :
  dir:string option ->
  seed:int ->
  failure ->
  (string * string) list ->
  failure
(** Write the failure's minimized triple to
    [dir/fuzz-seed<seed>-sample<i>.repro] (creating [dir] if needed) and
    return the failure with [repro_path] set; a [None] directory is a
    no-op. The extra metadata is appended after the standard
    seed/sample/family keys. Exposed for the standalone campaign tool
    and the tests. *)

val campaign :
  ?pool:Parallel.Pool.t ->
  ?guard:Guard.t ->
  ?dir:string ->
  seed:int ->
  count:int ->
  unit ->
  outcome
(** Run samples [0 .. count-1]. With [~dir], each failure's minimized
    counterexample is written to [dir/fuzz-seed<seed>-sample<i>.repro]
    (the directory is created if missing). The guard is consulted
    between samples; on a trip the campaign stops with the samples
    completed so far. *)

val pp_outcome : outcome Fmt.t
