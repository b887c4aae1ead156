open Logic

type budget = {
  max_disjuncts : int;
  max_atoms_per_disjunct : int;
  max_steps : int;
}

let default_budget =
  { max_disjuncts = 2_000; max_atoms_per_disjunct = 40; max_steps = 5_000 }

type outcome =
  | Complete
  | Disjunct_budget
  | Size_budget
  | Step_budget
  | Guard_exhausted of Guard.cause

type result = {
  ucq : Ucq.t;
  outcome : outcome;
  steps : int;
  generated : int;
  containment_checks : int;
  cache_hits : int;
  cache_misses : int;
  index_pruned : int;
  component_splits : int;
  kernel_stats : Saturation.Stats.t;
}

(* The saturation shares the containment-based minimization of
   Ucq.add_minimal, reimplemented here so the pairwise implication checks
   can be counted and fanned out per existing disjunct. The decisions (and
   the disjunct order of the result) are exactly those of Ucq.add_minimal —
   containment verdicts go through the process-wide memo cache
   ([Containment.implies_memo]), which never changes a verdict, only its
   cost. *)

(* Candidate dedup: subsumption against the evolving UCQ is *monotone* —
   [add_minimal] only ever replaces disjuncts by strictly more general
   ones, so once a candidate is covered (whether it was added or
   subsumed), every later candidate with the same canonical form is
   covered too and can be dropped without any containment checks. The
   table is run-local (keyed on [Cq.canon_id]). *)
let make_dedup () =
  let seen = Hashtbl.create 512 in
  fun q' ->
    let k = Cq.canon_id q' in
    Hashtbl.mem seen k
    || begin
         Hashtbl.add seen k ();
         false
       end

let finalize ~aux ~ucq ~outcome ~steps ~generated ~containment_checks
    ~dedup_hits ~kernel_stats ~(memo0 : Containment.memo_stats)
    ~(ix0 : Ucq_index.stats) ~(solver0 : Containment.solver_stats) =
  let memo1 = Containment.memo_stats () in
  let visible =
    List.filter
      (fun d -> not (Single_head.mentions_aux aux d))
      (Ucq.disjuncts ucq)
  in
  let ucq = Ucq.of_list visible in
  let ix1 = Ucq_index.stats () in
  let solver1 = Containment.solver_stats () in
  {
    ucq;
    outcome;
    steps;
    generated;
    containment_checks;
    cache_hits = (memo1.hits - memo0.hits) + dedup_hits;
    cache_misses = memo1.misses - memo0.misses;
    index_pruned =
      ix1.pruned - ix0.pruned
      + (solver1.prescreened - solver0.prescreened);
    component_splits = solver1.splits - solver0.splits;
    kernel_stats;
  }

let split_batch = Saturation.split_batch

(* Resolve [implies q' d] over a candidate list in two phases: a
   coordinator prepass answers every pair the containment memo (or a
   trivial fast path) already decides — [`Subsumed] short-circuits
   without waking the pool — and only the unresolved residue fans out.
   On warm stores most pairs are memo-resolved, so a typical insertion
   costs zero pool dispatches. *)
let subsumed_by ~pool ~probe ~implies q' candidates =
  let known = ref false in
  let unknown =
    List.filter
      (fun d ->
        (not !known)
        &&
        match probe q' d with
        | Some true ->
            known := true;
            false
        | Some false -> false
        | None -> true)
      candidates
  in
  !known
  || Parallel.Pool.exists pool
       (fun d -> implies q' d)
       (Array.of_list unknown)

(* The victim direction: per-candidate verdicts [implies d q'], memo
   prepass first, pool only for the unresolved pairs (their verdicts are
   scattered back into candidate order, so the result is exactly
   [List.map (fun d -> implies d q') candidates]). *)
let verdicts_against ~pool ~probe ~implies q' candidates =
  let cands = Array.of_list candidates in
  let pre = Array.map (fun d -> probe d q') cands in
  let unresolved = ref [] in
  Array.iteri
    (fun i v -> if v = None then unresolved := i :: !unresolved)
    pre;
  let unresolved = Array.of_list (List.rev !unresolved) in
  let computed =
    Parallel.Pool.map_array pool
      (fun i -> implies cands.(i) q')
      unresolved
  in
  Array.iteri (fun k i -> pre.(i) <- Some computed.(k)) unresolved;
  Array.to_list
    (Array.map (function Some v -> v | None -> assert false) pre)

(* The evolving minimal UCQ: a subsumption index ([Ucq_index]) whose
   fingerprints are probed before any containment search, plus the
   canonical ids of the live disjuncts. The surviving containment checks
   of an insertion fan out across the pool ([Ucq_index.subsumer_candidates]
   probes in the same newest-first order as [Ucq_index.covered], so a
   size-1 pool reproduces the sequential verdicts); all store mutation
   happens on the coordinator.

   The live-id table makes the worklist's "was this disjunct subsumed
   since it was enqueued?" probe one hash lookup instead of an
   O(frontier) scan. The probe is exact: two live disjuncts never share a
   canonical id (an isomorphic candidate is subsumed at insertion), and a
   killed disjunct's class can never re-enter the store (its killer — or,
   transitively, the killer's killer — still covers every isomorphic
   copy). *)
type store = { idx : Ucq_index.t; live : (int, unit) Hashtbl.t }

let is_live store q = Hashtbl.mem store.live (Cq.canon_id q)

let add_live store d =
  Ucq_index.add store.idx d;
  Hashtbl.replace store.live (Cq.canon_id d) ()

let insert ~pool ~probe ~implies store q' =
  let subsumers = Ucq_index.subsumer_candidates store.idx q' in
  if subsumed_by ~pool ~probe ~implies q' subsumers then `Subsumed
  else begin
    let victims = Ucq_index.victim_candidates store.idx q' in
    let verdicts =
      verdicts_against ~pool ~probe ~implies q' (List.map snd victims)
    in
    List.iter2
      (fun (slot, d) dropped ->
        if dropped then begin
          Ucq_index.kill store.idx slot;
          Hashtbl.remove store.live (Cq.canon_id d)
        end)
      victims verdicts;
    add_live store q';
    `Added
  end

(* Install snapshot disjuncts (given newest-first) verbatim, with no
   containment checks: a checkpointed store is already pairwise
   non-subsuming, and [add_minimal]'s monotonicity means nothing later in
   the run can make a preloaded disjunct wrong — only subsume it, which
   the ordinary insert path handles. [Ucq_index.disjuncts] reads
   newest-first, so install oldest-first to land in the checkpointed
   order. *)
let preload store disj = List.iter (add_live store) (List.rev disj)

let checkpoint_kind = "rewrite"

(* A rewriting snapshot holds the *uncompiled* theory (Single_head aux
   naming is deterministic per theory, so resume recompiles to identical
   aux symbols), the original query, the store disjuncts in store order
   (auxiliary-mentioning ones included — they are live saturation
   state), and the kernel frontier. Canonical CQ ids are process-local
   and never serialized; the run-local dedup table is reseeded from the
   decoded disjuncts, which is a subset of the ids the interrupted run
   had seen — the missing ones only cost re-checks through the insert
   path, never a different UCQ (subsumption against the store is
   monotone). Hence the resumed result is UCQ-{e equivalent}, not
   bit-identical: the contract the differential suite checks. *)
let encode_state ~round ~theory ~q ~budget ~steps ~store_disjuncts ~frontier
    =
  let module Codec = Checkpoint.Codec in
  {
    Checkpoint.Snapshot.kind = checkpoint_kind;
    round;
    meta =
      [
        ("steps", string_of_int steps);
        ("max_disjuncts", string_of_int budget.max_disjuncts);
        ( "max_atoms_per_disjunct",
          string_of_int budget.max_atoms_per_disjunct );
        ("max_steps", string_of_int budget.max_steps);
      ];
    sections =
      [
        ("theory", Codec.theory_to_lines theory);
        ("query", [ Codec.cq_to_string q ]);
        ("store", List.map Codec.cq_to_string store_disjuncts);
        ( "frontier",
          List.map Codec.cq_to_string (Array.to_list frontier) );
      ];
  }

type restart = {
  store0 : Cq.t list;  (* newest-first, the checkpointed store order *)
  frontier0 : Cq.t list;  (* queue order *)
  steps0 : int;
  round0 : int;
}

(* The one saturation, sequential and batch-synchronous at once: a
   kernel round expands a batch of live frontier disjuncts (one worklist
   pop at a size-1 pool — the reference semantics; the whole live
   frontier at -j N — every ordering that influences the result is fixed
   before work is distributed), then folds the candidates into the
   containment-minimal store in a fixed frontier order on the
   coordinator. The produced UCQ does not depend on the domain count; a
   parallel run may differ *syntactically* from the sequential result (a
   subsumed frontier entry is still expanded if it died within its own
   batch), but on completion both are equivalent UCQs — the property the
   differential test suite checks. *)
let rewrite_from ?(pool = Parallel.Pool.sequential) ?guard
    ?(budget = default_budget) ?checkpoint:checkpoint_sink ~restart theory q
    =
  let guard = match guard with Some g -> g | None -> Guard.unlimited () in
  let jobs = Parallel.Pool.size pool in
  let compiled, aux = Single_head.compile theory in
  let memo0 = Containment.memo_stats () in
  let ix0 = Ucq_index.stats () in
  let solver0 = Containment.solver_stats () in
  let checks = Atomic.make 0 in
  let implies a b =
    (* Poll inside the quadratic part so deadline/memory trips are
       observed between containment searches, not only at round
       boundaries (workers poll too — Guard is domain-safe); the
       saturation reacts at the kernel's next checkpoint. *)
    if Atomic.fetch_and_add checks 1 land Guard.poll_mask = 0 then
      ignore (Guard.check guard);
    Containment.implies_memo a b
  in
  (* The coordinator's memo prepass: a probe that answers counts as a
     containment check (it replaced one), so the reported check totals
     stay comparable with the pre-batching engine. *)
  let probe a b =
    match Containment.memo_probe a b with
    | Some _ as v ->
        ignore (Atomic.fetch_and_add checks 1);
        v
    | None -> None
  in
  let store = { idx = Ucq_index.create (); live = Hashtbl.create 256 } in
  let insert = insert ~pool ~probe ~implies store in
  let q0 = Containment.core_of_query q in
  let seen_before = make_dedup () in
  let dedup_hits = ref 0 in
  let steps = ref 0 in
  let init, base_round =
    match restart with
    | None ->
        ignore (seen_before q0);
        ignore (insert q0);
        ([ q0 ], 0)
    | Some { store0; frontier0; steps0; round0 } ->
        preload store store0;
        ignore (seen_before q0);
        List.iter (fun d -> ignore (seen_before d)) store0;
        List.iter (fun d -> ignore (seen_before d)) frontier0;
        steps := steps0;
        (frontier0, round0)
  in
  let outcome = ref Complete in
  (* Per-disjunct expansion cost from the previous round, feeding the
     dispatch gate's [?est_s] hint: rewriting rounds expand queries of
     slowly-drifting size, so the running per-item average is a solid
     predictor (0. = no history yet, the gate probes). *)
  let expand_item_s = ref 0. in
  let exception Budget_hit in
  let step (ctx : Saturation.ctx) batch =
    (* Disjuncts subsumed since they were enqueued need not expand. *)
    let live = List.filter (is_live store) (Array.to_list batch) in
    if live = [] then
      {
        Saturation.next = [];
        tally = Saturation.Stats.zero;
        stop = false;
        commit = true;
      }
    else
      (* One fuel unit per expanded disjunct, drawn before the fan-out;
         a trip discards nothing — the store already holds only sound
         rewritings — it just stops the saturation here. *)
      match Guard.spend guard (List.length live) with
      | Some cause ->
          outcome := Guard_exhausted cause;
          {
            Saturation.next = [];
            tally = Saturation.Stats.zero;
            stop = true;
            commit = false;
          }
      | None -> (
          let n_live = List.length live in
          let t_expand = Unix.gettimeofday () in
          let est = !expand_item_s *. float_of_int n_live in
          let expansions =
            Parallel.Pool.map_list ~guard
              ?est_s:(if est > 0. then Some est else None)
              ctx.Saturation.pool
              (fun q' -> Piece_unifier.one_step_theory q' compiled)
              live
          in
          expand_item_s :=
            (Unix.gettimeofday () -. t_expand) /. float_of_int n_live;
          let expanded = n_live in
          steps := !steps + expanded;
          match Guard.status guard with
          | Some cause ->
              (* The fan-out observed a trip: keep the store (all its
                 disjuncts are sound) but skip the merge. The batch goes
                 back on the frontier — its expansions are discarded, so
                 a resumed run must re-expand these disjuncts. *)
              outcome := Guard_exhausted cause;
              {
                Saturation.next = live;
                tally = Saturation.Stats.tally ~expanded ();
                stop = true;
                commit = true;
              }
          | None ->
              (* The merge runs on the coordinator (so the dedup's plain
                 hash table is safe), folding candidates in the fixed
                 frontier order. *)
              let added = ref [] in
              let generated = ref 0 in
              let admitted = ref 0 in
              let deduped = ref 0 in
              let stop = ref false in
              (try
                 List.iter
                   (List.iter (fun q' ->
                        incr generated;
                        if Cq.size q' > budget.max_atoms_per_disjunct
                        then begin
                          outcome := Size_budget;
                          raise Budget_hit
                        end;
                        if seen_before q' then begin
                          incr dedup_hits;
                          incr deduped
                        end
                        else
                          match insert q' with
                          | `Added ->
                              incr admitted;
                              added := q' :: !added;
                              if
                                Ucq_index.cardinal store.idx
                                > budget.max_disjuncts
                              then begin
                                outcome := Disjunct_budget;
                                raise Budget_hit
                              end
                          | `Subsumed -> incr deduped))
                   expansions
               with Budget_hit -> stop := true);
              {
                Saturation.next = List.rev !added;
                tally =
                  Saturation.Stats.tally ~expanded ~generated:!generated
                    ~admitted:!admitted ~deduped:!deduped ();
                stop = !stop;
                commit = true;
              })
  in
  let checkpoint =
    Option.map
      (fun sink ->
        {
          Saturation.every = sink.Checkpoint.every;
          min_interval_s = sink.Checkpoint.min_interval_s;
          save =
            (fun ~round ~final:_ frontier ->
              Checkpoint.save_to sink
                (encode_state ~round ~theory ~q ~budget ~steps:!steps
                   ~store_disjuncts:(Ucq_index.disjuncts store.idx)
                   ~frontier));
        })
      checkpoint_sink
  in
  let verdict, kernel_stats =
    Saturation.run ~pool ~guard
      ~drain:
        (Saturation.At_most
           (fun () ->
             (* The remaining step budget bounds the batch; at effective
                parallelism 1 (a size-1 pool, or any pool whose workers
                the machine cannot actually run in parallel) expand one
                disjunct per round — exactly the sequential worklist-pop
                semantics, avoiding the coarser batch-synchronous
                schedule's extra containment work when it cannot pay. *)
             let r = budget.max_steps - !steps in
             if jobs = 1 || Parallel.Pool.effective_size pool <= 1 then
               min 1 r
             else r))
      ~record_rounds:(jobs > 1) ~base_round ?checkpoint ~init ~step ()
  in
  let outcome =
    match verdict with
    | Saturation.Saturated -> !outcome (* Complete *)
    | Saturation.Stopped ->
        if !outcome = Complete then Step_budget else !outcome
    | Saturation.Tripped cause ->
        if !outcome = Complete then Guard_exhausted cause else !outcome
  in
  finalize ~aux
    ~ucq:(Ucq.of_disjuncts_unchecked (Ucq_index.disjuncts store.idx))
    ~outcome ~steps:!steps
    ~generated:kernel_stats.Saturation.Stats.totals.Saturation.Stats.generated
    ~containment_checks:(Atomic.get checks)
    ~dedup_hits:!dedup_hits ~kernel_stats ~memo0 ~ix0 ~solver0

let rewrite ?pool ?guard ?budget ?checkpoint theory q =
  rewrite_from ?pool ?guard ?budget ?checkpoint ~restart:None theory q

let decode_snapshot snap =
  let module S = Checkpoint.Snapshot in
  let module Codec = Checkpoint.Codec in
  if snap.S.kind <> checkpoint_kind then
    invalid_arg
      (Printf.sprintf "Rewrite.resume: %S snapshot, expected %S" snap.S.kind
         checkpoint_kind);
  let theory = Codec.theory_of_lines (S.section snap "theory") in
  let q =
    match S.section snap "query" with
    | [ line ] -> Codec.cq_of_string line
    | _ -> raise (Codec.Error "expected a one-line query section")
  in
  let store0 = List.map Codec.cq_of_string (S.section snap "store") in
  let frontier0 = List.map Codec.cq_of_string (S.section snap "frontier") in
  let steps0 = Option.value ~default:0 (S.meta_int snap "steps") in
  let snap_budget =
    match
      ( S.meta_int snap "max_disjuncts",
        S.meta_int snap "max_atoms_per_disjunct",
        S.meta_int snap "max_steps" )
    with
    | Some d, Some a, Some s ->
        Some
          { max_disjuncts = d; max_atoms_per_disjunct = a; max_steps = s }
    | _ -> None
  in
  ( theory,
    q,
    { store0; frontier0; steps0; round0 = snap.S.round },
    snap_budget )

let resume ?pool ?guard ?budget ?checkpoint snap =
  let theory, q, restart, snap_budget = decode_snapshot snap in
  let budget =
    match budget with
    | Some b -> b
    | None -> Option.value ~default:default_budget snap_budget
  in
  rewrite_from ?pool ?guard ~budget ?checkpoint ~restart:(Some restart)
    theory q

let outcome_of_result r ~(guard : Guard.t) =
  match r.outcome with
  | Complete -> Guard.Complete r
  | Guard_exhausted cause ->
      Guard.Exhausted { partial = r; cause; progress = Guard.progress guard }
  | Disjunct_budget | Size_budget | Step_budget ->
      Guard.Exhausted
        { partial = r; cause = Guard.Fuel; progress = Guard.progress guard }

let rs ?pool ?budget theory q =
  let r = rewrite ?pool ?budget theory q in
  match r.outcome with
  | Complete -> Some (Ucq.max_disjunct_size r.ucq)
  | Disjunct_budget | Size_budget | Step_budget | Guard_exhausted _ -> None
