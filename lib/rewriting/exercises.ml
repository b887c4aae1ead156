open Logic

let term_birth_stages run =
  let births = ref Term.Map.empty in
  for i = 0 to Chase.Engine.depth run do
    List.iter
      (fun atom ->
        List.iter
          (fun t ->
            if not (Term.Map.mem t !births) then
              births := Term.Map.add t i !births)
          (Atom.terms atom))
      (Chase.Engine.new_at_stage run i)
  done;
  !births

let adjacency_contraction run =
  let d = Chase.Engine.initial run in
  let dom = Fact_set.domain d in
  let g_d = Gaifman.of_fact_set d in
  let g_ch = Gaifman.of_fact_set (Chase.Engine.result run) in
  let worst = ref (Some 0) in
  (* One BFS per constant with a chase neighbour above it in the
     domain; each such neighbour is a lookup. *)
  Term.Set.iter
    (fun c ->
      let from_c = lazy (Gaifman.distances_from g_d c) in
      Term.Set.iter
        (fun c' ->
          if Term.compare c c' < 0 && Term.Set.mem c' dom then
            match (!worst, Term.Map.find_opt c' (Lazy.force from_c)) with
            | Some w, Some dist -> worst := Some (max w dist)
            | _, None -> worst := None
            | None, _ -> ())
        (Gaifman.neighbours g_ch c))
    dom;
  !worst

let atom_delay run =
  let births = term_birth_stages run in
  let delay = ref 0 in
  for i = 1 to Chase.Engine.depth run do
    List.iter
      (fun atom ->
        let terms_ready =
          List.fold_left
            (fun acc t ->
              max acc (Option.value ~default:0 (Term.Map.find_opt t births)))
            0 (Atom.terms atom)
        in
        delay := max !delay (i - terms_ready))
      (Chase.Engine.new_at_stage run i)
  done;
  !delay
