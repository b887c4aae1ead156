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
  dedup_hits : int;
  index_pruned : int;
  component_splits : int;
  kernel_stats : Saturation.Stats.t;
}

(* The saturation minimizes through [Ucq_index.insert_minimal], the
   indexed [Ucq.add_minimal], with a containment test that counts its
   calls and polls the guard. The decisions (and the disjunct order of
   the result) are exactly those of [Ucq.add_minimal]. No verdict is
   cached beyond the run-local dedup below, so every counter of the
   result is fixed by the input. *)

(* Candidate dedup: subsumption against the evolving UCQ is *monotone* —
   [add_minimal] only ever replaces disjuncts by strictly more general
   ones, so once a candidate is covered (whether it was added or
   subsumed), every later candidate with the same canonical form is
   covered too and can be dropped without any containment checks. The
   table is run-local (keyed on [Cq.canon_id]) and holds the ids of raw
   candidates and of their cores alike: an id names exactly one
   isomorphism class, isomorphic raw candidates have isomorphic cores,
   and a raw candidate is equivalent to its core, so either id certifies
   the candidate is covered. Since the id is complete, every candidate
   isomorphic to one seen before hits here, on its raw id, and skips
   [Containment.core_of_query]; most candidates are such hits. Each id
   maps to the size of the core it stands for, so a hit applies the size
   budget to the same number the cored candidate would show. *)
let make_dedup () =
  let seen : (int, int) Hashtbl.t = Hashtbl.create 512 in
  let core_size q = Hashtbl.find_opt seen (Cq.canon_id q) in
  let remember q ~core_size = Hashtbl.replace seen (Cq.canon_id q) core_size in
  (core_size, remember)

let finalize ~aux ~ucq ~outcome ~steps ~generated ~containment_checks
    ~dedup_hits ~kernel_stats ~(ix0 : Ucq_index.stats)
    ~(solver0 : Containment.solver_stats) =
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
    dedup_hits;
    index_pruned =
      ix1.pruned - ix0.pruned
      + (solver1.prescreened - solver0.prescreened);
    component_splits = solver1.splits - solver0.splits;
    kernel_stats;
  }

(* The evolving minimal UCQ: a subsumption index ([Ucq_index]) whose
   fingerprints are probed before any containment search, plus the
   canonical ids of the live disjuncts.

   The live-id table makes the worklist's "was this disjunct subsumed
   since it was enqueued?" probe one hash lookup instead of an
   O(frontier) scan. The probe is exact: two live disjuncts never share a
   canonical id (an isomorphic candidate is dropped by the dedup, or,
   against a store preloaded on resume, subsumed at insertion), and a
   killed disjunct's class can never re-enter the store (its killer —
   or, transitively, the killer's killer — still covers every isomorphic
   copy). *)
type store = { idx : Ucq_index.t; live : (int, unit) Hashtbl.t }

let is_live store q = Hashtbl.mem store.live (Cq.canon_id q)

let add_live store d =
  Ucq_index.add store.idx d;
  Hashtbl.replace store.live (Cq.canon_id d) ()

let insert ~implies store q' =
  match Ucq_index.insert_minimal store.idx q' ~implies with
  | `Subsumed -> `Subsumed
  | `Added killed ->
      List.iter (fun d -> Hashtbl.remove store.live (Cq.canon_id d)) killed;
      Hashtbl.replace store.live (Cq.canon_id q') ();
      `Added

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
   path, never a different store (subsumption against the store is
   monotone). Hence the resumed result has the same disjuncts in the
   same order, up to variable renaming, while the counters differ: the
   contract the differential suite checks. *)
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
          List.map Codec.cq_to_string frontier );
      ];
  }

type restart = {
  store0 : Cq.t list;  (* newest-first, the checkpointed store order *)
  frontier0 : Cq.t list;  (* queue order *)
  steps0 : int;
  round0 : int;
}

(* The one saturation: a FIFO worklist that pops one live disjunct per
   kernel round, expands it by one-step piece rewritings, and folds the
   candidates into the containment-minimal store in order. [rew(q)] is
   the fixpoint (Theorem 1), and this schedule is the only one: the
   result and its disjunct order are fixed by the input. *)
let rewrite_from ?guard ?(budget = default_budget) ?checkpoint:checkpoint_sink
    ~restart theory q =
  let guard = match guard with Some g -> g | None -> Guard.unlimited () in
  let compiled, aux = Single_head.compile theory in
  let ix0 = Ucq_index.stats () in
  let solver0 = Containment.solver_stats () in
  let checks = ref 0 in
  let implies a b =
    (* Poll inside the quadratic part so deadline/memory trips are
       observed between containment searches, not only at round
       boundaries; the saturation reacts at the kernel's next
       checkpoint. *)
    if !checks land Guard.poll_mask = 0 then ignore (Guard.check guard);
    incr checks;
    Containment.implies a b
  in
  let store = { idx = Ucq_index.create (); live = Hashtbl.create 256 } in
  let insert = insert ~implies store in
  let q0 = Containment.core_of_query q in
  let seen_core_size, remember = make_dedup () in
  let remember_core d = remember d ~core_size:(Cq.size d) in
  let dedup_hits = ref 0 in
  let steps = ref 0 in
  let init, base_round =
    match restart with
    | None ->
        remember_core q0;
        ignore (insert q0);
        ([ q0 ], 0)
    | Some { store0; frontier0; steps0; round0 } ->
        preload store store0;
        remember_core q0;
        List.iter remember_core store0;
        List.iter remember_core frontier0;
        steps := steps0;
        (frontier0, round0)
  in
  let outcome = ref Complete in
  let exception Budget_hit in
  let step ~round:_ current =
    (* The step budget comes first: a spent budget declines the disjunct
       untouched, before any liveness probe or fuel draw, so it stays at
       the frontier's head for the final snapshot. *)
    if !steps >= budget.max_steps then Saturation.discard
    (* A disjunct subsumed since it was enqueued need not expand. *)
    else if not (is_live store current) then
      {
        Saturation.next = [];
        tally = Saturation.Stats.zero;
        stop = false;
        commit = true;
      }
    else
      (* One fuel unit per expanded disjunct; a trip discards nothing —
         the store already holds only sound rewritings — it just stops
         the saturation here. *)
      match Guard.spend guard 1 with
      | Some cause ->
          outcome := Guard_exhausted cause;
          Saturation.discard
      | None -> (
          let candidates = Piece_unifier.one_step_theory current compiled in
          incr steps;
          match Guard.status guard with
          | Some cause ->
              (* A trip landed during the expansion (a cancellation):
                 keep the store (all its disjuncts are sound) but skip
                 the merge. The disjunct goes back on the frontier — its
                 expansion is discarded, so a resumed run must re-expand
                 it. *)
              outcome := Guard_exhausted cause;
              {
                Saturation.next = [ current ];
                tally = Saturation.Stats.tally ~expanded:1 ();
                stop = true;
                commit = true;
              }
          | None ->
              (* Fold the candidates in order. Coring happens here, and
                 only for candidates the dedup has not seen. *)
              let added = ref [] in
              let generated = ref 0 in
              let admitted = ref 0 in
              let deduped = ref 0 in
              let stop = ref false in
              let within_size core_size =
                if core_size > budget.max_atoms_per_disjunct then begin
                  outcome := Size_budget;
                  raise Budget_hit
                end
              in
              let drop () =
                incr dedup_hits;
                incr deduped
              in
              (try
                 List.iter
                   (fun raw ->
                     incr generated;
                     match seen_core_size raw with
                     | Some core_size ->
                         within_size core_size;
                         drop ()
                     | None -> (
                         let q' = Containment.core_of_query raw in
                         let core_size = Cq.size q' in
                         remember raw ~core_size;
                         within_size core_size;
                         (* A candidate that is already its own core has
                            the raw id, just remembered: checking it
                            again would drop it against itself. *)
                         if
                           Cq.canon_id q' <> Cq.canon_id raw
                           && seen_core_size q' <> None
                         then drop ()
                         else begin
                           remember_core q';
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
                           | `Subsumed -> incr deduped
                         end))
                   candidates
               with Budget_hit -> stop := true);
              {
                Saturation.next = List.rev !added;
                tally =
                  Saturation.Stats.tally ~expanded:1 ~generated:!generated
                    ~admitted:!admitted ~deduped:!deduped ();
                stop = !stop;
                commit = true;
              })
  in
  let checkpoint =
    Option.map
      (fun sink ->
        ( sink,
          fun ~round frontier ->
            encode_state ~round ~theory ~q ~budget ~steps:!steps
              ~store_disjuncts:(Ucq_index.disjuncts store.idx)
              ~frontier ))
      checkpoint_sink
  in
  let verdict, kernel_stats =
    Saturation.run ~guard ~base_round ?checkpoint ~init ~step ()
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
    ~containment_checks:!checks ~dedup_hits:!dedup_hits ~kernel_stats ~ix0
    ~solver0

let rewrite ?pool:_ ?guard ?budget ?checkpoint theory q =
  rewrite_from ?guard ?budget ?checkpoint ~restart:None theory q

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

let resume ?guard ?budget ?checkpoint snap =
  let theory, q, restart, snap_budget = decode_snapshot snap in
  let budget =
    match budget with
    | Some b -> b
    | None -> Option.value ~default:default_budget snap_budget
  in
  rewrite_from ?guard ~budget ?checkpoint ~restart:(Some restart)
    theory q

let outcome_of_result r ~(guard : Guard.t) =
  match r.outcome with
  | Complete -> Guard.Complete r
  | Guard_exhausted cause ->
      Guard.Exhausted { partial = r; cause; progress = Guard.progress guard }
  | Disjunct_budget | Size_budget | Step_budget ->
      Guard.Exhausted
        { partial = r; cause = Guard.Fuel; progress = Guard.progress guard }

let rs ?budget theory q =
  let r = rewrite ?budget theory q in
  match r.outcome with
  | Complete -> Some (Ucq.max_disjunct_size r.ucq)
  | Disjunct_budget | Size_budget | Step_budget | Guard_exhausted _ -> None
