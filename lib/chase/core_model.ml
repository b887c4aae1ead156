open Logic

let endomorphism_avoiding f ~keep ~avoid =
  let dom = Fact_set.domain f in
  let flexible = Term.Set.diff dom keep in
  if not (Term.Set.mem avoid flexible) then None
  else
    Homomorphism.find
      (Homomorphism.make
         ~image_ok:(fun _ u -> not (Term.equal u avoid))
         ~flexible ~pattern:(Fact_set.atoms f) ~target:f ())

let image_of f mapping ~flexible =
  (* A shrinking endomorphism typically moves a small fraction of the
     atoms (the ones touching the avoided term), so only those are
     imaged: the join index enumerates exactly the atoms touching a
     moved term, and the untouched atoms — the vast majority of a large
     model — are never visited. Both callers have built [f]'s index
     already (they read its domain). The shrunk set is unindexed, so the
     next [core_of] round rebuilds its index once. *)
  let moved =
    Term.Map.fold
      (fun v u acc -> if Term.equal v u then acc else Term.Set.add v acc)
      mapping Term.Set.empty
  in
  let touching =
    Atom.Set.elements
      (Term.Set.fold
         (fun v acc ->
           List.fold_left
             (fun acc a -> Atom.Set.add a acc)
             acc
             (Fact_set.atoms_with_term f v))
         moved Atom.Set.empty)
  in
  let removed = ref [] and added = ref [] in
  List.iter
    (fun a ->
      let a' = Homomorphism.apply mapping ~flexible a in
      if not (Atom.equal a a') then begin
        removed := a :: !removed;
        added := a' :: !added
      end)
    touching;
  let shrunk = Fact_set.diff f (Fact_set.of_list !removed) in
  List.fold_left (fun fs a -> Fact_set.add a fs) shrunk !added

let core_of ?guard ?(keep = Term.Set.empty) f =
  let guard = match guard with Some g -> g | None -> Guard.unlimited () in
  (* One kernel round per successful shrink: the round searches for an
     endomorphism avoiding some non-kept element and applies it; a round
     finding none (or observing a trip mid-search) ends the saturation —
     the current structure is the core (or, after a trip, a sound,
     possibly non-minimal retract). *)
  let state = ref f in
  let step ~round:_ () =
    let f = !state in
    let dom = Fact_set.domain f in
    let candidates = Term.Set.elements (Term.Set.diff dom keep) in
    let rec try_avoid = function
      | [] -> None
      | a :: rest -> (
          (* One checkpoint per avoided-element probe. *)
          if Guard.check guard <> None then None
          else
            match endomorphism_avoiding f ~keep ~avoid:a with
            | Some h -> Some h
            | None -> try_avoid rest)
    in
    match try_avoid candidates with
    | Some h ->
        state := image_of f h ~flexible:(Term.Set.diff dom keep);
        {
          Saturation.next = [ () ];
          tally = Saturation.Stats.tally ~expanded:1 ();
          stop = false;
          commit = true;
        }
    | None ->
        {
          Saturation.next = [];
          tally = Saturation.Stats.zero;
          stop = false;
          commit = true;
        }
  in
  ignore (Saturation.run ~guard ~init:[ () ] ~step ());
  !state

let retract_onto f ~into ~keep =
  let flexible = Term.Set.diff (Fact_set.domain f) keep in
  Homomorphism.find
    (Homomorphism.make ~flexible ~pattern:(Fact_set.atoms f) ~target:into ())

type core_result = { c : int; model : Fact_set.t; core : Fact_set.t }

exception Found_model of Fact_set.t

let core_of_chase ?pool ?guard ?(max_c = 20) ?(lookahead = 6)
    ?(max_atoms = 100_000) ?(max_homs = 5_000) theory d =
  let guard' = match guard with Some g -> g | None -> Guard.unlimited () in
  let run =
    Engine.run ?pool ?guard ~max_depth:(max_c + lookahead) ~max_atoms theory d
  in
  let keep = Fact_set.domain d in
  let deepest = Engine.result run in
  let deepest_is_everything = Engine.saturated run in
  let flexible = Term.Set.diff (Fact_set.domain deepest) keep in
  let model_inside n =
    let stage_n = Engine.stage run (min n (Engine.depth run)) in
    (* The image of a model is a model (Observation 2), so when the run
       saturated any fold of it into stage [n] works.  Otherwise [deepest]
       is only a prefix and a fold image need not be a model: enumerate
       folds (capped) and model-check each image. *)
    let tried = ref 0 in
    (* Prefer folding onto original constants: candidate facts whose
       arguments are instance constants come first, so the first
       homomorphisms enumerated are the natural "collapse everything onto
       D" folds whose images tend to be models. *)
    let prefer atom =
      List.length
        (List.filter
           (fun t -> not (Term.Set.mem t keep))
           (Atom.args atom))
    in
    try
      Homomorphism.iter
        (Homomorphism.make ~prefer ~flexible
           ~pattern:(Fact_set.atoms deepest) ~target:stage_n ())
        (fun h ->
          incr tried;
          if !tried > max_homs then raise Not_found;
          if
            !tried land Guard.poll_mask = 0
            && Guard.check guard' <> None
          then raise Not_found;
          let m = image_of deepest h ~flexible in
          if deepest_is_everything || Theory.satisfied_in theory m then
            raise (Found_model m));
      None
    with
    | Found_model m -> Some m
    | Not_found -> None
  in
  let rec search n =
    if n > max_c || n > Engine.depth run || Guard.status guard' <> None then
      None
    else
      match model_inside n with
      | Some m ->
          Some { c = n; model = m; core = core_of ?guard ~keep m }
      | None -> search (n + 1)
  in
  search 0
