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

  type round = {
    index : int;
    frontier : int;
    tally : tally;
    wall_s : float;
  }

  type t = {
    rounds : int;
    totals : tally;
    wall_s : float;
    per_round : round array;
  }

  let pp_round ppf r =
    Format.fprintf ppf
      "round %d: frontier %d, expanded %d -> %d generated, %d admitted (%d \
       deduped), %.3fs"
      r.index r.frontier r.tally.expanded r.tally.generated r.tally.admitted
      r.tally.deduped r.wall_s

  let pp ppf s =
    Array.iter (fun r -> Format.fprintf ppf "%a@\n" pp_round r) s.per_round;
    Format.fprintf ppf
      "total: %d round%s, expanded %d -> %d generated, %d admitted (%d \
       deduped), %.3fs"
      s.rounds
      (if s.rounds = 1 then "" else "s")
      s.totals.expanded s.totals.generated s.totals.admitted s.totals.deduped
      s.wall_s
end

type verdict = Saturated | Stopped | Tripped of Guard.cause

type ctx = { guard : Guard.t; round : int }

type 'w step_result = {
  next : 'w list;
  tally : Stats.tally;
  stop : bool;
  commit : bool;
}

type drain = All | At_most of (unit -> int)

(* The worklist: a flat array-backed FIFO. Items live in
   [buf.(head .. tail - 1)]; a round's batch is one [Array.sub] off the
   head, productions append at the tail, and growth compacts the live
   region to the front. Frontier size is O(1) — the old front/back list
   deque paid an O(n) double reversal per [All] round plus an O(n)
   [List.length] for the stats. *)
type 'w queue = {
  mutable buf : 'w array;
  mutable head : int;
  mutable tail : int;
}

let queue_of_list init =
  let buf = Array.of_list init in
  { buf; head = 0; tail = Array.length buf }

let queue_length q = q.tail - q.head

(* Make room for [extra] more items, using [witness] to seed fresh
   storage. Doubling growth amortizes to O(1) per pushed item. *)
let queue_reserve q extra witness =
  if q.tail + extra > Array.length q.buf then begin
    let len = queue_length q in
    let cap = max 16 (max (2 * Array.length q.buf) (len + extra)) in
    let buf = Array.make cap witness in
    Array.blit q.buf q.head buf 0 len;
    q.buf <- buf;
    q.head <- 0;
    q.tail <- len
  end

let queue_push_list q items =
  match items with
  | [] -> ()
  | witness :: _ ->
      queue_reserve q (List.length items) witness;
      List.iter
        (fun x ->
          q.buf.(q.tail) <- x;
          q.tail <- q.tail + 1)
        items

let queue_take q k =
  let m = min k (queue_length q) in
  let batch = Array.sub q.buf q.head m in
  q.head <- q.head + m;
  batch

let run ?guard ?(drain = All) ?(max_rounds = max_int)
    ?(record_rounds = true) ?(base_round = 0) ?checkpoint ~init ~step () =
  let guard = match guard with Some g -> g | None -> Guard.unlimited () in
  let rounds = ref 0 in
  let totals = ref Stats.zero in
  let per_round = ref [] in
  let t_start = Unix.gettimeofday () in
  let q = queue_of_list init in
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
      (encode ~round:abs (Array.sub q.buf q.head (queue_length q)));
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
        per_round = Array.of_list (List.rev !per_round);
      } )
  in
  let rec loop () =
    if queue_length q = 0 then finish Saturated
    else if base_round + !rounds >= max_rounds then finish Stopped
    else
      match Guard.check guard with
      | Some cause ->
          (* A boundary trip costs nothing: the round never ran. *)
          finish (Tripped cause)
      | None -> (
          let want =
            match drain with All -> queue_length q | At_most f -> f ()
          in
          if (match drain with All -> false | At_most _ -> want <= 0) then
            finish Stopped
          else
            let batch = queue_take q want in
            let ctx = { guard; round = base_round + !rounds + 1 } in
            let t0 = if record_rounds then Unix.gettimeofday () else 0. in
            let res = step ctx batch in
            if not res.commit then begin
              (* Aborted mid-round: the partial products are unsound,
                 so the round is discarded wholesale — the
                 accumulated state stays an exact prefix. The batch
                 goes back on the head (steps must not mutate it), so
                 the final snapshot still holds the full frontier. *)
              q.head <- q.head - Array.length batch;
              match Guard.status guard with
              | Some cause -> finish (Tripped cause)
              | None -> finish Stopped
            end
            else begin
              incr rounds;
              totals := Stats.add !totals res.tally;
              if record_rounds then
                per_round :=
                  {
                    Stats.index = base_round + !rounds;
                    frontier = Array.length batch;
                    tally = res.tally;
                    wall_s = Unix.gettimeofday () -. t0;
                  }
                  :: !per_round;
              queue_push_list q res.next;
              cadence_save ();
              (* A trip raised inside the committed round (typically
                 by the step's own [Guard.spend]) stops the run with
                 the round kept. *)
              match Guard.status guard with
              | Some cause -> finish (Tripped cause)
              | None -> if res.stop then finish Stopped else loop ()
            end)
  in
  loop ()

let outcome verdict ~guard ~complete ~partial ~stopped_cause =
  match verdict with
  | Saturated -> Guard.Complete complete
  | Tripped cause ->
      Guard.Exhausted { partial; cause; progress = Guard.progress guard }
  | Stopped ->
      Guard.Exhausted
        { partial; cause = stopped_cause; progress = Guard.progress guard }
