type t = { disjuncts : Cq.t list }

let empty = { disjuncts = [] }
let disjuncts u = u.disjuncts
let cardinal u = List.length u.disjuncts
let is_empty u = u.disjuncts = []

(* Every disjunct pair is probed against the cheap homomorphism-invariant
   fingerprints before the containment search runs; a refuted pair costs
   a few integer compares. The fingerprints are cached on the [Cq]s, so
   even these one-shot list scans benefit. *)
let covers u q =
  List.exists
    (fun q' ->
      Ucq_index.pair_feasible ~from:q' ~into:q && Containment.implies q q')
    u.disjuncts

let add_minimal u q =
  if covers u q then (u, `Subsumed)
  else
    let kept =
      List.filter
        (fun q' ->
          not
            (Ucq_index.pair_feasible ~from:q ~into:q'
            && Containment.implies q' q))
        u.disjuncts
    in
    ({ disjuncts = q :: kept }, `Added)

(* The quadratic minimization through a transient subsumption index, so
   the pair probes are fingerprint-first. Reading the index newest-first
   gives the disjunct order of an [add_minimal] fold. *)
let of_list qs =
  let idx = Ucq_index.create () in
  List.iter
    (fun q ->
      ignore (Ucq_index.insert_minimal idx q ~implies:Containment.implies))
    qs;
  { disjuncts = Ucq_index.disjuncts idx }

let of_disjuncts_unchecked disjuncts = { disjuncts }

let equivalent a b =
  List.for_all (covers b) a.disjuncts && List.for_all (covers a) b.disjuncts

let union a b = List.fold_left (fun u q -> fst (add_minimal u q)) a b.disjuncts

let max_disjunct_size u =
  List.fold_left (fun acc q -> max acc (Cq.size q)) 0 u.disjuncts

let holds u f tuple = List.exists (fun q -> Cq.holds q f tuple) u.disjuncts
let boolean_holds u f = List.exists (fun q -> Cq.boolean_holds q f) u.disjuncts
let exists p u = List.exists p u.disjuncts
let find_opt p u = List.find_opt p u.disjuncts

let pp ppf u =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:(Fmt.any "@,or ") Cq.pp)
    u.disjuncts
