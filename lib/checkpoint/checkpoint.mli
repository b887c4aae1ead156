(** Crash-safe snapshots of saturation state.

    The paper's hardest workloads — deep chase towers (E2 [phi_R^5], E3
    [phi_I2^5]) and the long rewriting saturations of Theorems 5-6 — run
    for minutes to hours, and without durability a crash, OOM kill, or
    deadline trip throws all partial work away. This module provides the
    three layers that fix that:

    {ol
    {- {!Snapshot}: a versioned, MD5-checksummed, atomically-written
       (tmp + fsync + rename) file format for saturation state. A
       snapshot is a [kind] tag, an absolute round number, a small
       key/value [meta] block, and named line-oriented [sections] whose
       lines the engines fill with {!Codec}-rendered state. A reader
       validates magic, version, payload length and checksum before
       surrendering a single byte of content, so a torn or corrupted
       file is {e rejected}, never half-believed. {!Snapshot.load_latest}
       is the degradation ladder: the newest snapshot that validates,
       else an older one — a corrupt checkpoint can cost time, never
       correctness.}
    {- {!type-sink}s: where and how often a run saves. The saturation
       kernel ([Saturation.run]) is the one place that saves: it takes a
       sink plus the engine's encoder and applies the sink's cadence and
       throttle.}
    {- {!Codec}: deterministic text encodings for the hash-consed logic
       types (terms, atoms, CQs, mappings, rules, theories). Hash-consed
       ids are process-local, so snapshots never store them; decoding
       re-interns every value through the ordinary constructors, which is
       exactly what makes a resumed chase bit-identical (Observation 8:
       the Skolem naming convention derives names from head isomorphism
       types, so [Tgd.make] on the decoded rule rebuilds the very same
       Skolem patterns).}}

    A resume is {!Snapshot.load_latest} plus one match on the snapshot's
    [kind], calling that engine's [resume]. There is no retry: the
    engines are deterministic, so an exception on a resumed run (a bad
    or wrong-kind snapshot) recurs on every attempt.

    Writes honour the seeded IO fault schedule ([Guard.Faults.io_fate]):
    a torn write truncates the payload before the rename (the file lands
    but fails its checksum), a failed fsync abandons the write as if the
    disk were full, and a corrupt read flips a byte before validation —
    so the whole degradation ladder is exercisable deterministically in
    tests without real disk failures. *)

open Logic

(** {1 Snapshot files} *)

module Snapshot : sig
  type t = {
    kind : string;  (** which engine wrote it: ["chase"] etc. *)
    round : int;  (** absolute saturation round the state is valid at *)
    meta : (string * string) list;  (** small scalar state, ordered *)
    sections : (string * string list) list;
        (** named line blocks; lines must not contain newlines *)
  }

  val version : int
  (** Bumped on any incompatible format change; readers reject other
      versions ({!Bad_version}) rather than guess. *)

  type error =
    | Missing of string  (** no such file *)
    | Bad_magic of string  (** not a snapshot file at all *)
    | Bad_version of int  (** written by an incompatible format version *)
    | Bad_checksum of string  (** truncated or corrupted payload *)
    | Malformed of string  (** checksum passed but the structure didn't parse *)
    | Io of string  (** the write itself failed (ENOSPC, permissions, ...) *)

  val describe_error : error -> string

  val meta : t -> string -> string option
  val meta_int : t -> string -> int option
  val section : t -> string -> string list
  (** Lines of the named section; [[]] when absent. *)

  val write : dir:string -> t -> (string, error) result
  (** Atomically persist the snapshot as [dir/snap-<round>.ckpt]: render
      to a temp file in [dir], fsync it, rename over the target, fsync
      the directory. Returns the final path. A failure (including an
      injected [`Enospc] fsync fate) cleans up the temp file and reports
      [Error]; the previous snapshot for that round, if any, survives
      untouched. An injected [`Torn] write fate truncates the payload
      before the rename — the file lands, and {!read} rejects it. *)

  val read : string -> (t, error) result
  (** Validate magic, version, payload length, and MD5 checksum, then
      parse. An injected [`Corrupt] read fate flips a payload byte
      before validation (and is therefore caught by the checksum). *)

  val list : dir:string -> (int * string) list
  (** The snapshot files in [dir] as [(round, path)], newest round
      first. Non-snapshot files are ignored; a missing directory is
      [[]]. *)

  val load_latest : dir:string -> (t * string) option * int
  (** Walk {!list} newest-first and return the first snapshot that
      validates, plus the number of newer snapshots that were rejected
      on the way (the degradation count surfaced in [--stats]).
      [None] means no snapshot is left to resume from. Rejected files
      are left in place for post-mortem. *)
end

(** {1 Sinks: where and how often engines save} *)

type sink = {
  dir : string;  (** snapshot directory (created by {!sink}) *)
  every : int;  (** save at every [every]-th committed round *)
  min_interval_s : float;
      (** and only once this much wall time has passed since the
          previous save {e ended} — the knob that keeps fine-grained
          kernels (the marked process commits hundreds of thousands of
          one-pop rounds) from spending their run writing files *)
  keep : int;  (** retain at most this many newest snapshots *)
}

val sink : ?every:int -> ?min_interval_s:float -> ?keep:int -> string -> sink
(** [sink dir] with defaults [every:1], [min_interval_s:0.5], [keep:4].
    Creates [dir] (and parents) if needed. *)

val save_to : sink -> Snapshot.t -> unit
(** {!Snapshot.write} plus pruning to [keep] newest snapshots. Never
    raises: write failures are counted (see {!counters}) and the run
    continues — durability is best-effort, correctness is not at
    stake. *)

(** {1 Process-wide counters (surfaced in [--stats])} *)

type counters = {
  writes : int;  (** snapshots successfully persisted *)
  write_failures : int;  (** snapshot writes abandoned (IO errors) *)
  bytes_written : int;  (** total payload bytes persisted *)
  rejected_reads : int;  (** snapshots rejected during {!Snapshot.load_latest} *)
}

val counters : unit -> counters
val reset_counters : unit -> unit

(** {1 Codec: deterministic text encodings of logic values} *)

module Codec : sig
  exception Error of string
  (** Raised by every decoder on malformed input. *)

  (** Fields are length-prefixed (netstring-style), so encoded values
      nest and concatenate without quoting or escaping; every encoder
      below produces a single newline-free string suitable as a snapshot
      section line or as a {!concat} field. *)

  val concat : string list -> string
  (** Join fields into one line; inverse of {!fields}. *)

  val fields : string -> string list

  val list_to_string : ('a -> string) -> 'a list -> string
  val list_of_string : (string -> 'a) -> string -> 'a list

  val int_of_string : string -> int
  (** [Stdlib.int_of_string] with failures mapped to {!Error}. *)

  val term_to_string : Term.t -> string
  val term_of_string : string -> Term.t

  val atom_to_string : Atom.t -> string
  val atom_of_string : string -> Atom.t

  val cq_to_string : Cq.t -> string
  val cq_of_string : string -> Cq.t

  val mapping_to_string : Homomorphism.mapping -> string
  val mapping_of_string : string -> Homomorphism.mapping

  val rule_to_string : Tgd.t -> string
  val rule_of_string : string -> Tgd.t
  (** Round-trips through [Tgd.make], so the decoded rule's Skolemized
      head is rebuilt by the same Definition-4 naming convention — the
      load-bearing fact for bit-identical chase resume. *)

  val theory_to_lines : Theory.t -> string list
  val theory_of_lines : string list -> Theory.t
end

(** {1 Atomic writes for plain files}

    The tmp + rename protocol alone (no checksum, no format), shared
    with the [.repro] and bench-JSON writers so an interrupted campaign
    never leaves a truncated file behind. *)

module Atomic_io : sig
  val write_file : string -> string -> unit
  (** [write_file path contents]: write to a temp file in [path]'s
      directory, fsync, rename over [path]. Raises [Sys_error] /
      [Unix.Unix_error] on failure (the temp file is cleaned up). *)
end
