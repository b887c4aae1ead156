open Logic

type stats = {
  steps : int;
  cut_steps : int;
  fuse_steps : int;
  reduce_steps : int;
  dropped_improper : int;
  dropped_unsat : int;
}

type result = {
  rewriting : Ucq.t;
  aliased : Marked_query.t list;
  trivial : Marked_query.t list;
  complete : bool;
  interrupted : Guard.cause option;
  stats : stats;
  kernel_stats : Saturation.Stats.t;
  rank_trace : Rank.srk list option;
}

(* The seen-store: one entry per isomorphism class of marked query,
   keyed by [Marked_query.class_key] (alias pattern and the canonical
   code of the marked body) with its stdlib polymorphic hash, taken
   once per insertion and kept in the key. Equal keys are isomorphism,
   so membership is one hash lookup and no pairwise test runs. *)
module Store = struct
  module Key = struct
    type t = { hash : int; alias : int list; code : string }

    let equal a b =
      a.hash = b.hash && String.equal a.code b.code && a.alias = b.alias

    let hash k = k.hash
  end

  module Tbl = Hashtbl.Make (Key)

  type t = Marked_query.t Tbl.t

  let create () : t = Tbl.create 64

  (* Insert [q] unless its class is present; [true] when inserted. *)
  let add_if_absent (store : t) q =
    let alias, code = Marked_query.class_key q in
    let k = { Key.hash = Hashtbl.hash (alias, code); alias; code } in
    if Tbl.mem store k then false
    else begin
      Tbl.add store k q;
      true
    end
end

let checkpoint_kind = "marked"

(* One marked query per snapshot line: the free (original, representative)
   pairs, the marked set, and the atoms — [Marked_query.make] revalidates
   on decode. Class keys are never serialized; the resumed store is
   rebuilt by re-inserting every saved query, which recomputes their
   keys. *)
let mq_to_string w mq =
  let module Codec = Checkpoint.Codec in
  Codec.line w (fun w ->
      Codec.field w (fun w ->
          List.iter
            (fun (o, r) ->
              Codec.field w (fun w ->
                  Codec.term_field w o;
                  Codec.term_field w r))
            mq.Marked_query.free);
      Codec.field w (fun w ->
          Term.Set.iter (Codec.term_field w) mq.Marked_query.marked);
      Codec.field w (fun w ->
          List.iter (Codec.atom_field w) mq.Marked_query.atoms))

let mq_of_string ~levels s =
  let module Codec = Checkpoint.Codec in
  match Codec.fields s with
  | [ free; marked; atoms ] -> (
      let pair p =
        match Codec.fields p with
        | [ o; r ] -> (Codec.term_of_string o, Codec.term_of_string r)
        | _ -> raise (Codec.Error "marked query: bad free pair")
      in
      try
        Marked_query.make ~levels
          ~free:(Codec.list_of_string pair free)
          ~marked:
            (Term.Set.of_list
               (Codec.list_of_string Codec.term_of_string marked))
          (Codec.list_of_string Codec.atom_of_string atoms)
      with Invalid_argument m -> raise (Codec.Error m))
  | _ -> raise (Codec.Error "marked query: expected three fields")

(* The snapshot carries the complete classification state: the live
   worklist, the collected totally-marked and trivial queries, and the
   {e full} seen-store contents. Serializing the store is what keeps a
   resumed run from re-admitting (and re-expanding) a query the
   interrupted run had already processed — unlike generic rewriting,
   store membership here is the only dedup, so dropping it would change
   the result, not just the step count. The store only grows and its
   queries never change, so [lines] (class key -> snapshot line) renders
   each class once per run: a snapshot renders only the classes added
   since the previous one. *)
let encode_state ~round ~levels ~q ~max_steps ~stats ~seen ~lines ~finished
    ~trivial ~frontier =
  let module Codec = Checkpoint.Codec in
  let w = Codec.writer () in
  let mq_to_string = mq_to_string w in
  let line k mq =
    match Store.Tbl.find_opt lines k with
    | Some l -> l
    | None ->
        let l = mq_to_string mq in
        Store.Tbl.add lines k l;
        l
  in
  let seen_lines = Store.Tbl.fold (fun k mq acc -> line k mq :: acc) seen [] in
  {
    Checkpoint.Snapshot.kind = checkpoint_kind;
    round;
    meta =
      [
        ("steps", string_of_int stats.steps);
        ("cut_steps", string_of_int stats.cut_steps);
        ("fuse_steps", string_of_int stats.fuse_steps);
        ("reduce_steps", string_of_int stats.reduce_steps);
        ("dropped_improper", string_of_int stats.dropped_improper);
        ("dropped_unsat", string_of_int stats.dropped_unsat);
        ("max_steps", string_of_int max_steps);
      ];
    sections =
      [
        ( "levels",
          Array.to_list
            (Array.map (fun l -> Codec.concat [ Symbol.name l ]) levels) );
        ("query", [ Codec.cq_to_string q ]);
        ("frontier", List.map mq_to_string frontier);
        ("finished", List.map mq_to_string finished);
        ("trivial", List.map mq_to_string trivial);
        ("seen", seen_lines);
      ];
  }

type restart = {
  frontier0 : Marked_query.t list;  (* queue order *)
  finished0 : Marked_query.t list;  (* newest-first, as the run keeps them *)
  trivial0 : Marked_query.t list;
  seen0 : Marked_query.t list;
  stats0 : stats;
  round0 : int;
}

let run_from ?guard ?(max_steps = 200_000) ?(record_ranks = false)
    ?on_step ?checkpoint:checkpoint_sink ~restart ~levels q =
  let guard = match guard with Some g -> g | None -> Guard.unlimited () in
  if Cq.free q = [] then
    invalid_arg
      "Process.run: boolean queries need no rewriting under (loop); \
       the process expects at least one answer variable";
  if not (Cq.is_connected q) then
    invalid_arg "Process.run: the query must be connected";
  let seen = Store.create () in
  let finished = ref [] in
  let trivial = ref [] in
  let stats =
    ref
      {
        steps = 0;
        cut_steps = 0;
        fuse_steps = 0;
        reduce_steps = 0;
        dropped_improper = 0;
        dropped_unsat = 0;
      }
  in
  (* The kernel owns the FIFO worklist of live queries; [classify_new]
     returns the items to enqueue. When rank traces are requested, a
     mirror queue shadows the kernel's worklist (same pops, same pushes)
     so each snapshot can enumerate the currently-live queries. *)
  let mirror = Queue.create () in
  let classify_new mq =
    if not (Marked_query.is_properly_marked mq) then begin
      stats := { !stats with dropped_improper = !stats.dropped_improper + 1 };
      None
    end
    else if Store.add_if_absent seen mq then begin
      if Marked_query.is_trivial mq then begin
        trivial := mq :: !trivial;
        None
      end
      else if Marked_query.is_totally_marked mq then begin
        finished := mq :: !finished;
        None
      end
      else begin
        if record_ranks then Queue.add mq mirror;
        Some mq
      end
    end
    else None
  in
  let initial_live, base_round =
    match restart with
    | None ->
        (List.filter_map classify_new (Marked_query.all_markings ~levels q), 0)
    | Some r ->
        (* Rebuild the dedup store from the snapshot's full contents,
           then restore the collected results and counters verbatim; the
           live worklist resumes exactly where the snapshot left it. *)
        List.iter (fun mq -> ignore (Store.add_if_absent seen mq)) r.seen0;
        finished := r.finished0;
        trivial := r.trivial0;
        stats := r.stats0;
        if record_ranks then List.iter (fun mq -> Queue.add mq mirror) r.frontier0;
        (r.frontier0, r.round0)
  in
  let rank_trace = ref [] in
  let snapshot () =
    if record_ranks then begin
      let all =
        List.of_seq (Queue.to_seq mirror) @ !finished @ !trivial
      in
      rank_trace := Rank.srk all :: !rank_trace
    end
  in
  snapshot ();
  let pre_tripped = Guard.status guard in
  (* One kernel round per process step: drain one marked query, apply the
     operation its maximal variable selects, classify the results. The
     live worklist is simply abandoned on a trip: the totally-marked
     queries collected so far form a sound partial rewriting (each came
     from finitely many rank-descending operations on a proper marking). *)
  let step ~round:_ current =
    (* The step budget comes first, before the fuel draw and the mirror
       pop: a spent budget declines the query, which stays at the
       frontier's head for the final snapshot. *)
    if !stats.steps >= max_steps then Saturation.discard
    else
      (* One checkpoint and one fuel unit per process step. *)
      match Guard.spend guard 1 with
      | Some _ -> Saturation.discard
      | None -> (
          if record_ranks then ignore (Queue.pop mirror);
          match Operations.maximal_var current with
          | None ->
              (* Lemma 55 guarantees a maximal variable for live queries. *)
              invalid_arg "Process.run: live query without maximal variable"
          | Some (x, classification) ->
              stats :=
                (let s = !stats in
                 match classification with
                 | Operations.Cut _ ->
                     {
                       s with
                       steps = s.steps + 1;
                       cut_steps = s.cut_steps + 1;
                     }
                 | Operations.Fuse _ ->
                     {
                       s with
                       steps = s.steps + 1;
                       fuse_steps = s.fuse_steps + 1;
                     }
                 | Operations.Reduce _ ->
                     {
                       s with
                       steps = s.steps + 1;
                       reduce_steps = s.reduce_steps + 1;
                     }
                 | Operations.Unsatisfiable ->
                     {
                       s with
                       steps = s.steps + 1;
                       dropped_unsat = s.dropped_unsat + 1;
                     });
              let results = Operations.apply current x classification in
              (match on_step with
              | Some f -> f ~before:current ~classification ~results
              | None -> ());
              let new_live = List.filter_map classify_new results in
              snapshot ();
              {
                Saturation.next = new_live;
                tally =
                  Saturation.Stats.tally ~expanded:1
                    ~generated:(List.length results)
                    ~admitted:(List.length new_live)
                    ~deduped:(List.length results - List.length new_live)
                    ();
                stop = false;
                commit = true;
              })
  in
  let checkpoint =
    Option.map
      (fun sink ->
        let lines = Store.Tbl.create 64 in
        ( sink,
          fun ~round frontier ->
            encode_state ~round ~levels ~q ~max_steps ~stats:!stats ~seen
              ~lines ~finished:!finished ~trivial:!trivial ~frontier ))
      checkpoint_sink
  in
  let verdict, kernel_stats =
    Saturation.run ~guard ~base_round ?checkpoint ~init:initial_live ~step ()
  in
  let complete, interrupted =
    match verdict with
    | Saturation.Saturated -> (pre_tripped = None, pre_tripped)
    | Saturation.Stopped -> (false, pre_tripped)
    | Saturation.Tripped cause -> (false, Some cause)
  in
  let aliased, plain =
    List.partition Marked_query.aliased !finished
  in
  let rewriting =
    Ucq.of_list (List.filter_map Marked_query.to_cq plain)
  in
  {
    rewriting;
    aliased;
    trivial = !trivial;
    complete;
    interrupted;
    stats = !stats;
    kernel_stats;
    rank_trace = (if record_ranks then Some (List.rev !rank_trace) else None);
  }

let run ?guard ?max_steps ?record_ranks ?on_step ?checkpoint ~levels q =
  run_from ?guard ?max_steps ?record_ranks ?on_step ?checkpoint
    ~restart:None ~levels q

let decode_snapshot snap =
  let module S = Checkpoint.Snapshot in
  let module Codec = Checkpoint.Codec in
  if snap.S.kind <> checkpoint_kind then
    invalid_arg
      (Printf.sprintf "Process.resume: %S snapshot, expected %S" snap.S.kind
         checkpoint_kind);
  let levels =
    S.section snap "levels"
    |> List.map (fun line ->
           match Codec.fields line with
           | [ name ] -> Symbol.make name ~arity:2
           | _ -> raise (Codec.Error "levels: expected one field per line"))
    |> Array.of_list
  in
  if Array.length levels < 2 then
    raise (Codec.Error "levels: need at least two level relations");
  let q =
    match S.section snap "query" with
    | [ line ] -> Codec.cq_of_string line
    | _ -> raise (Codec.Error "expected a one-line query section")
  in
  let dec = mq_of_string ~levels in
  let stat name = Option.value ~default:0 (S.meta_int snap name) in
  let restart =
    {
      frontier0 = List.map dec (S.section snap "frontier");
      finished0 = List.map dec (S.section snap "finished");
      trivial0 = List.map dec (S.section snap "trivial");
      seen0 = List.map dec (S.section snap "seen");
      stats0 =
        {
          steps = stat "steps";
          cut_steps = stat "cut_steps";
          fuse_steps = stat "fuse_steps";
          reduce_steps = stat "reduce_steps";
          dropped_improper = stat "dropped_improper";
          dropped_unsat = stat "dropped_unsat";
        };
      round0 = snap.S.round;
    }
  in
  (levels, q, restart, S.meta_int snap "max_steps")

let resume ?guard ?max_steps ?checkpoint snap =
  let levels, q, restart, snap_max = decode_snapshot snap in
  let max_steps =
    match max_steps with Some _ as m -> m | None -> snap_max
  in
  run_from ?guard ?max_steps ?checkpoint ~restart:(Some restart)
    ~levels q

let td_levels = [| Symbol.make "G" ~arity:2; Symbol.make "R" ~arity:2 |]

let rewrite_td ?pool:_ ?guard ?max_steps ?on_step ?checkpoint q =
  run ?guard ?max_steps ?on_step ?checkpoint ~levels:td_levels q

let rewrite_tdk ?guard ?max_steps ?on_step ?checkpoint kk q =
  if kk < 2 then invalid_arg "Process.rewrite_tdk: K must be at least 2";
  let levels =
    Array.init kk (fun i -> Symbol.make (Printf.sprintf "I%d" (i + 1)) ~arity:2)
  in
  run ?guard ?max_steps ?on_step ?checkpoint ~levels q

let boolean_always_true () = ()

let holds_via_rewriting result d tuple =
  let dom = Fact_set.domain d in
  let in_dom t = Term.Set.mem t dom in
  Ucq.holds result.rewriting d tuple
  || List.exists
       (fun mq ->
         match Marked_query.tuple_admissible mq tuple with
         | None -> false
         | Some bindings -> (
             if List.exists (fun (_, v) -> not (in_dom v)) bindings then false
             else
               match Marked_query.to_cq mq with
               | None -> true
               | Some cq ->
                   let reps = Term.dedup (List.map snd mq.Marked_query.free) in
                   let tuple' =
                     List.map
                       (fun rep ->
                         snd
                           (List.find
                              (fun (r, _) -> Term.equal r rep)
                              bindings))
                       reps
                   in
                   Cq.holds cq d tuple'))
       (result.aliased @ result.trivial)
