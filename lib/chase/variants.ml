open Logic

type result = {
  facts : Fact_set.t;
  steps : int;
  saturated : bool;
  interrupted : Guard.cause option;
}

(* Abort marker for guard trips observed inside a task's trigger
   enumeration (see Engine.Sweep_aborted). *)
exception Sweep_aborted

(* ------------------------------------------------------------------ *)
(* Oblivious chase                                                     *)
(* ------------------------------------------------------------------ *)

let oblivious_apply ~rule_index rule sigma =
  let all_vars = Tgd.body_vars rule in
  let args = List.map (fun v -> Term.Map.find v sigma) all_vars in
  let subst =
    Term.subst_of_bindings
      (List.mapi
         (fun j w ->
           let fn =
             Printf.sprintf "ob%d.%d[%s]" rule_index j (Tgd.name rule)
           in
           (w, Term.app fn args))
         (Tgd.exist_vars rule)
      @ List.map (fun v -> (v, Term.Map.find v sigma)) (Tgd.frontier rule))
  in
  List.map (Atom.subst subst) (Tgd.head rule)

let run_oblivious ?pool ?guard
    ?(max_depth = 20) ?(max_atoms = 100_000) theory d =
  let guard =
    match guard with Some g -> g | None -> Guard.unlimited ()
  in
  let pool =
    match pool with Some p -> p | None -> Parallel.Pool.create 1
  in
  let facts = ref d in
  let steps = ref 0 in
  let capped = ref None in
  let rules = Array.of_list (Theory.rules theory) in
  (* One kernel round per oblivious stage over a unit worklist: the
     evolving fact set lives in [facts]; saturation is signalled by
     returning no successor item. *)
  let step ~round:_ () =
    (* The historical atom cap, checked at round entry like the old
       loop condition: the round never runs. *)
    if Fact_set.cardinal !facts > max_atoms then begin
      capped := Some Guard.Fuel;
      Saturation.discard
    end
    else begin
      (* Publish the index before the fan-out; workers only read [!facts].
         The per-rule addition sets are merged in rule order (set union is
         order-insensitive anyway, so the result is trivially
         deterministic). *)
      ignore (Fact_set.domain !facts);
      let per_rule =
        Parallel.Pool.map_array ~guard pool
          (fun (rule_index, rule) ->
            let local = ref Atom.Set.empty in
            let seen = ref 0 in
            (try
               Tgd.triggers rule !facts (fun sigma ->
                   incr seen;
                   if
                     !seen land Guard.poll_mask = 0
                     && Guard.check guard <> None
                   then raise Sweep_aborted;
                   List.iter
                     (fun atom ->
                       if not (Fact_set.mem atom !facts) then
                         local := Atom.Set.add atom !local)
                     (oblivious_apply ~rule_index rule sigma))
             with Sweep_aborted -> ());
            !local)
          (Array.mapi (fun i r -> (i, r)) rules)
      in
      match Guard.status guard with
      | Some _ ->
          (* Discard the aborted sweep: [facts] stays the last completed
             stage, a sound prefix of the fault-free oblivious chase. *)
          Saturation.discard
      | None ->
          let additions =
            Array.fold_left Atom.Set.union Atom.Set.empty per_rule
          in
          let n = Atom.Set.cardinal additions in
          let tally = Saturation.Stats.tally ~generated:n ~admitted:n () in
          if Atom.Set.is_empty additions then
            { Saturation.next = []; tally; stop = false; commit = true }
          else begin
            incr steps;
            (* [additions] was mem-filtered against [!facts], so this is the
               disjoint-union fast path: the existing index is extended by the
               delta rather than rebuilt over the whole set. *)
            facts := Fact_set.union !facts (Fact_set.of_set additions);
            ignore (Guard.spend guard n);
            { Saturation.next = [ () ]; tally; stop = false; commit = true }
          end
    end
  in
  let verdict, _ =
    Saturation.run ~guard ~max_rounds:max_depth ~init:[ () ] ~step ()
  in
  let saturated, interrupted =
    match verdict with
    | Saturation.Saturated -> (true, None)
    | Saturation.Stopped -> (false, !capped)
    | Saturation.Tripped cause -> (false, Some cause)
  in
  { facts = !facts; steps = !steps; saturated; interrupted }

(* ------------------------------------------------------------------ *)
(* Core chase                                                          *)
(* ------------------------------------------------------------------ *)

let run_core ?pool ?guard ?(max_rounds = 20) ?(max_atoms = 100_000) theory
    d =
  let guard =
    match guard with Some g -> g | None -> Guard.unlimited ()
  in
  let keep = Fact_set.domain d in
  let current = ref d in
  let rounds = ref 0 in
  let stopped = ref None in
  (* One kernel round per "model-check, then step-and-fold" iteration. *)
  let step ~round:_ () =
    if Fact_set.cardinal !current > max_atoms then
      (* The historical cap stops the run without a cause (the old loop
         condition simply failed). *)
      Saturation.discard
    else if Theory.satisfied_in theory !current then
      { Saturation.next = []; tally = Saturation.Stats.zero;
        stop = false; commit = true }
    else begin
      let stepped =
        Engine.run ?pool ~guard ~max_depth:1 ~max_atoms
          theory !current
      in
      match Engine.interrupted stepped with
      | Some cause ->
          (* Keep the last completed round's structure. A sub-engine
             atom-cap trip is not a guard trip, so carry the cause out
             through [stopped]. *)
          stopped := Some cause;
          Saturation.discard
      | None ->
          incr rounds;
          let before = Fact_set.cardinal !current in
          current := Core_model.core_of ~guard ~keep (Engine.result stepped);
          let tally =
            Saturation.Stats.tally ~expanded:1
              ~generated:(Fact_set.cardinal (Engine.result stepped) - before)
              ~admitted:(Fact_set.cardinal !current - before)
              ()
          in
          { Saturation.next = [ () ]; tally; stop = false; commit = true }
    end
  in
  let verdict, _ =
    Saturation.run ~guard ~max_rounds ~init:[ () ] ~step ()
  in
  let saturated, interrupted =
    match verdict with
    | Saturation.Saturated -> (true, None)
    | Saturation.Stopped -> (false, !stopped)
    | Saturation.Tripped cause -> (false, Some cause)
  in
  { facts = !current; steps = !rounds; saturated; interrupted }

(* ------------------------------------------------------------------ *)
(* Restricted (standard) chase                                         *)
(* ------------------------------------------------------------------ *)

(* The largest [k] of a [_null<k>] constant in [terms], or 0. A run
   numbers its nulls from one past it, so equal inputs give equal
   results and no minted null collides with an input constant. *)
let max_null terms =
  let index (t : Term.t) =
    match t.Term.view with
    | Term.Const s when String.starts_with ~prefix:"_null" s ->
        let digits = String.sub s 5 (String.length s - 5) in
        if String.for_all (fun ch -> ch >= '0' && ch <= '9') digits then
          int_of_string_opt digits
        else None
    | _ -> None
  in
  Term.Set.fold
    (fun t m -> match index t with Some k -> max m k | None -> m)
    terms 0

let restricted_apply fresh_null rule sigma =
  let subst =
    Term.subst_of_bindings
      (List.map (fun w -> (w, fresh_null ())) (Tgd.exist_vars rule)
      @ List.map (fun v -> (v, Term.Map.find v sigma)) (Tgd.frontier rule))
  in
  List.map (Atom.subst subst) (Tgd.head rule)

let run_restricted ?guard ?(max_applications = 10_000)
    ?(max_atoms = 100_000) theory d =
  let guard =
    match guard with Some g -> g | None -> Guard.unlimited ()
  in
  let facts = ref d in
  let steps = ref 0 in
  let saturated = ref false in
  let last_null = ref (max_null (Fact_set.domain d)) in
  let fresh_null () =
    incr last_null;
    Term.const (Printf.sprintf "_null%d" !last_null)
  in
  let rec first_violation = function
    | [] -> None
    | rule :: rest -> (
        match Tgd.violating_trigger rule !facts with
        | Some sigma -> Some (rule, sigma)
        | None -> first_violation rest)
  in
  (* One kernel round per rule application over a unit worklist. *)
  let step ~round:_ () =
    if !steps >= max_applications || Fact_set.cardinal !facts > max_atoms
    then
      (* The historical budgets stop the run without a cause (the old
         loop condition simply failed). *)
      Saturation.discard
    else if
      (* One checkpoint (and one fuel unit) per rule application; the
         kernel's post-discard status check surfaces the trip. *)
      Guard.spend guard 1 <> None
    then Saturation.discard
    else
      match first_violation (Theory.rules theory) with
      | None ->
          saturated := true;
          { Saturation.next = []; tally = Saturation.Stats.zero;
            stop = false; commit = true }
      | Some (rule, sigma) ->
          incr steps;
          let head = restricted_apply fresh_null rule sigma in
          facts :=
            List.fold_left
              (fun fs atom -> Fact_set.add atom fs)
              !facts head;
          let tally =
            Saturation.Stats.tally ~expanded:1
              ~generated:(List.length head) ()
          in
          { Saturation.next = [ () ]; tally; stop = false; commit = true }
  in
  let verdict, _ =
    Saturation.run ~guard ~init:[ () ] ~step ()
  in
  let interrupted =
    match verdict with
    | Saturation.Tripped cause -> Some cause
    | Saturation.Saturated | Saturation.Stopped -> None
  in
  { facts = !facts; steps = !steps; saturated = !saturated; interrupted }
