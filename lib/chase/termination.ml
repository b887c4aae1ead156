type verdict = Holds of int | Budget_exhausted

let core_terminates_on ?pool ?guard ?max_c ?lookahead ?max_atoms theory d =
  match
    Core_model.core_of_chase ?pool ?guard ?max_c ?lookahead ?max_atoms theory d
  with
  | Some { Core_model.c; _ } -> Holds c
  | None -> Budget_exhausted

let all_instances_terminates_on ?pool ?guard ?max_depth ?max_atoms theory d =
  let run = Engine.run ?pool ?guard ?max_depth ?max_atoms theory d in
  if Engine.saturated run then Holds (Engine.depth run) else Budget_exhausted

let uniform_bound_on ?pool ?guard ?max_c ?lookahead ?max_atoms theory instances
    =
  (* The probe worklist is the instance list itself: one kernel round per
     instance, the guard checkpointed at every round boundary, so a trip
     skips the remaining instances (the per-instance list stays a prefix
     and [all_ok] below turns false). *)
  let acc = ref [] in
  let step ~round:_ d =
    (match
       core_terminates_on ?pool ?guard ?max_c ?lookahead ?max_atoms theory d
     with
    | Holds c -> acc := (d, c) :: !acc
    | Budget_exhausted -> ());
    {
      Saturation.next = [];
      tally = Saturation.Stats.tally ~expanded:1 ();
      stop = false;
      commit = true;
    }
  in
  ignore (Saturation.run ?guard ~init:instances ~step ());
  let per_instance = List.rev !acc in
  let all_ok = List.length per_instance = List.length instances in
  let bound =
    if all_ok && per_instance <> [] then
      Some (List.fold_left (fun acc (_, c) -> max acc c) 0 per_instance)
    else None
  in
  (bound, per_instance)
