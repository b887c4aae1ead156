type probe =
  init:Term.t Term.Map.t ->
  flexible:Term.Set.t ->
  pattern:Atom.t list ->
  target:Fact_set.t ->
  bool option

let installed : probe option Atomic.t = Atomic.make None
let register p = Atomic.set installed (Some p)
let probe () = Atomic.get installed
