(** No arena exists: a fact-set layer holds each fact once, as its
    [Atom.t] and its row of argument term ids ({!Fact_set}). This stub
    keeps the two names the repository benchmark's [trace.ml] reads for
    its [arena.*] per-layer values, which now read 0; it goes with the
    next change to the benchmark (ROADMAP item 3). *)

type t

val global : t

type stats = { spans : int; bytes : int }

val stats : t -> stats
(** Always [{ spans = 0; bytes = 0 }]. *)
