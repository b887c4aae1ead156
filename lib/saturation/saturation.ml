module Stats = struct
  type tally = {
    expanded : int;
    generated : int;
    admitted : int;
    deduped : int;
  }

  let zero = { expanded = 0; generated = 0; admitted = 0; deduped = 0 }

  let add a b =
    {
      expanded = a.expanded + b.expanded;
      generated = a.generated + b.generated;
      admitted = a.admitted + b.admitted;
      deduped = a.deduped + b.deduped;
    }

  let tally ?(expanded = 0) ?(generated = 0) ?(admitted = 0) ?(deduped = 0)
      () =
    { expanded; generated; admitted; deduped }

  type round = { index : int; tally : tally; wall_s : float }
  type t = { rounds : int; totals : tally; wall_s : float }

  let pp_round ppf r =
    Format.fprintf ppf
      "round %d: expanded %d -> %d generated, %d admitted (%d deduped), \
       %.3fs"
      r.index r.tally.expanded r.tally.generated r.tally.admitted
      r.tally.deduped r.wall_s

  let pp ppf s =
    Format.fprintf ppf
      "total: %d round%s, expanded %d -> %d generated, %d admitted (%d \
       deduped), %.3fs"
      s.rounds
      (if s.rounds = 1 then "" else "s")
      s.totals.expanded s.totals.generated s.totals.admitted s.totals.deduped
      s.wall_s
end

type verdict = Saturated | Stopped | Tripped of Guard.cause

type 'w step_result = {
  next : 'w list;
  tally : Stats.tally;
  stop : bool;
  commit : bool;
}

let discard = { next = []; tally = Stats.zero; stop = false; commit = false }

let run ?guard ?(max_rounds = max_int) ?(base_round = 0) ?checkpoint ~init
    ~step () =
  let guard = match guard with Some g -> g | None -> Guard.unlimited () in
  let rounds = ref 0 in
  let totals = ref Stats.zero in
  let t_start = Unix.gettimeofday () in
  (* The head is popped only when its round commits, so the queue always
     holds the full frontier a snapshot must carry. *)
  let q = Queue.of_seq (List.to_seq init) in
  (* Durability. A cadence save fires after a committed round when the
     *absolute* round number (resumed segments count from [base_round])
     hits the sink's [every] stride and at least [min_interval_s] has
     passed since the previous save *ended* — timing from its start
     would let one save longer than the interval make every later round
     save. A final save fires on any non-[Saturated] finish so a budget
     stop, guard trip, or cancellation always leaves the freshest
     resumable state behind; it is skipped when the cadence save already
     captured this exact round. Saturated runs save nothing — there is
     nothing to resume. *)
  let last_save_end = ref (Unix.gettimeofday ()) in
  let last_saved_round = ref (-1) in
  let save (sink, encode) abs =
    Checkpoint.save_to sink
      (encode ~round:abs (List.of_seq (Queue.to_seq q)));
    last_save_end := Unix.gettimeofday ();
    last_saved_round := abs
  in
  let cadence_save () =
    match checkpoint with
    | None -> ()
    | Some ((sink, _) as c) ->
        let abs = base_round + !rounds in
        if
          abs mod sink.Checkpoint.every = 0
          && Unix.gettimeofday () -. !last_save_end
             >= sink.Checkpoint.min_interval_s
        then save c abs
  in
  let finish verdict =
    (match (checkpoint, verdict) with
    | Some c, (Stopped | Tripped _) ->
        let abs = base_round + !rounds in
        if !last_saved_round <> abs then save c abs
    | _ -> ());
    ( verdict,
      {
        Stats.rounds = !rounds;
        totals = !totals;
        wall_s = Unix.gettimeofday () -. t_start;
      } )
  in
  let rec loop () =
    match Queue.peek_opt q with
    | None -> finish Saturated
    | Some _ when base_round + !rounds >= max_rounds -> finish Stopped
    | Some item -> (
        match Guard.check guard with
        | Some cause ->
            (* A boundary trip costs nothing: the round never ran. *)
            finish (Tripped cause)
        | None -> (
            let res = step ~round:(base_round + !rounds + 1) item in
            if not res.commit then
              (* Aborted mid-round (the partial products are unsound, so
                 the round is discarded wholesale and the accumulated
                 state stays an exact prefix) or declined by a client
                 budget. Either way the item is still at the head. *)
              match Guard.status guard with
              | Some cause -> finish (Tripped cause)
              | None -> finish Stopped
            else begin
              ignore (Queue.pop q);
              incr rounds;
              totals := Stats.add !totals res.tally;
              List.iter (fun x -> Queue.push x q) res.next;
              cadence_save ();
              (* A trip raised inside the committed round (typically
                 by the step's own [Guard.spend]) stops the run with
                 the round kept. *)
              match Guard.status guard with
              | Some cause -> finish (Tripped cause)
              | None -> if res.stop then finish Stopped else loop ()
            end))
  in
  loop ()
