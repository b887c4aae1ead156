(* The untimed oracle mode: every op of a workload is checked against an
   independent computation of its output.

   - answer-*: chase-then-query. The instance is chased, each query is
     evaluated on successive stages and restricted to the instance's
     domain, and the chase is deepened until the answers settle; they are
     the certain answers (Theorem 1) the portfolio must return.
   - rewrite-loopcut: each UCQ has n disjuncts and agrees with
     chase-then-query on a small seeded instance.
   - rewrite-marked: the known disjunct count, and the G^{2^n} disjunct.
   - chase-td: phi_R^3(a0,a8) is entailed; stage sizes are pinned by the
     golden file. *)

open Logic

let restrict_to instance tuples =
  let dom = Fact_set.domain instance in
  List.filter (List.for_all (fun t -> Term.Set.mem t dom)) tuples

(* Certain answers of each query by chase-then-query, [None] when they did
   not settle. Agreement of two consecutive stages is not enough (under
   T_loopcut, stages 0 and 1 agree and stage 2 adds the loops), so the
   answers must stay the same over three stages, from stage [|q|] on. *)
let chase_then_query ?(max_depth = 16) theory instance queries =
  let rec attempt depth =
    let run =
      Chase.Engine.run ~max_depth:depth ~max_atoms:Workload.chase_max_atoms theory
        instance
    in
    let last = Chase.Engine.depth run in
    let settle q =
      let at i =
        Portfolio.Strategy.normalize_tuples
          (restrict_to instance (Eval.answers q (Chase.Engine.stage run i)))
      in
      let same = Portfolio.Strategy.equal_answers in
      let rec go i =
        if Chase.Engine.saturated run && i >= last then Some (at last)
        else if i + 2 > last then None
        else
          let a = at i in
          if same a (at (i + 1)) && same a (at (i + 2)) then Some a else go (i + 1)
      in
      go (min (Cq.size q) last)
    in
    let answers = List.map settle queries in
    if List.for_all Option.is_some answers || Chase.Engine.saturated run || depth >= max_depth
    then answers
    else attempt (min max_depth (2 * depth))
  in
  attempt (2 + List.fold_left (fun acc q -> max acc (Cq.size q)) 0 queries)

let expected_marked_disjuncts = [ (3, 25); (5, 667) ]

let aliased tuple =
  List.length (List.sort_uniq Term.compare tuple) < List.length tuple

(* Check every op; return the golden lines, the failures and notes. *)
let check ~seed inputs (ops : Workload.op array) =
  let failures = ref [] and notes = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let outcomes =
    match inputs with
    | Workload.Answers { theory; instances; queries; _ } ->
        let outcomes = Array.map (fun (op : Workload.op) -> op.run None ()) ops in
        let indexed =
          List.mapi (fun i (inst, text) -> (i, inst, text)) (Array.to_list queries)
        in
        Array.iteri
          (fun inst instance ->
            let mine =
              List.filter_map
                (fun (i, j, text) -> if j = inst then Some (i, text) else None)
                indexed
            in
            let oracle =
              chase_then_query theory instance
                (List.map (fun (_, text) -> Parser.parse_query text) mine)
            in
            List.iter2
              (fun (i, text) answers ->
                let (o : Workload.outcome) = outcomes.(i) in
                match answers with
                | None -> fail "op %d (%s): the chase did not settle" i text
                | Some a ->
                    if Workload.digest_tuples a <> o.digest || List.length a <> o.size
                    then
                      fail "op %d (%s): %d answers, chase-then-query gives %d" i text
                        o.size (List.length a))
              mine oracle)
          instances;
        outcomes
    | Workload.Loopcut queries ->
        let small =
          Theories.Instances.random_binary ~seed ~rels:[ Theories.Zoo.e2 ] ~nodes:6
            ~facts:8
        in
        let oracle =
          chase_then_query Theories.Zoo.t_loopcut small (List.map snd queries)
        in
        Array.of_list
          (List.map2
             (fun (n, q) answers ->
               let r = Rewriting.Rewrite.rewrite Theories.Zoo.t_loopcut q in
               if Ucq.cardinal r.ucq <> n then
                 fail "E^%d: %d disjuncts, expected %d" n (Ucq.cardinal r.ucq) n;
               let mine =
                 Portfolio.Strategy.normalize_tuples (Eval.ucq_answers r.ucq small)
               in
               (match answers with
               | None -> fail "E^%d: the chase did not settle" n
               | Some a ->
                   (* The rewriter never makes two answer variables equal,
                      so the UCQ may miss a certain answer (c, c); those
                      are reported. Every other answer must agree. *)
                   let mem t l = List.exists (fun u -> Portfolio.Strategy.equal_answers [ t ] [ u ]) l in
                   let missed = List.filter (fun t -> not (mem t mine)) a in
                   if List.exists (fun t -> not (mem t a)) mine
                      || List.exists (fun t -> not (aliased t)) missed
                   then
                     fail "E^%d: the UCQ gives %d answers on the small instance, \
                           chase-then-query %d" n (List.length mine) (List.length a);
                   if missed <> [] then
                     notes :=
                       Printf.sprintf "E^%d: %d certain answers (c, c) are outside the UCQ"
                         n (List.length missed)
                       :: !notes);
               Workload.loopcut_outcome n r)
             queries oracle)
    | Workload.Marked { n; phi } ->
        let r = Marked.Process.rewrite_td phi in
        let got = Ucq.cardinal r.rewriting in
        (match List.assoc_opt n expected_marked_disjuncts with
        | Some want when want <> got -> fail "phi_R^%d: %d disjuncts, expected %d" n got want
        | _ -> ());
        let _, _, g = Theories.Zoo.g_path_query (1 lsl n) in
        if not (Ucq.exists (fun d -> Containment.isomorphic d g) r.rewriting) then
          fail "phi_R^%d: no G^%d disjunct" n (1 lsl n);
        [| Workload.marked_outcome r |]
    | Workload.Chase { depths; ends = a0, a8; instance } ->
        let runs =
          List.map
            (fun depth ->
              ( depth,
                Chase.Engine.run ~max_depth:depth ~max_atoms:Workload.chase_max_atoms
                  Theories.Zoo.t_d instance ))
            depths
        in
        let deepest, run = List.nth runs (List.length runs - 1) in
        let _, _, phi3 = Theories.Zoo.phi_r 3 in
        (match Chase.Entailment.entails_run run phi3 [ a0; a8 ] with
        | Chase.Entailment.Entailed _ -> ()
        | _ -> fail "phi_R^3(a0,a8) is not entailed by Ch_%d(T_d, G^8)" deepest);
        Array.of_list (List.map (fun (depth, r) -> Workload.chase_outcome depth r) runs)
  in
  Array.iteri
    (fun i (o : Workload.outcome) ->
      if not o.ok then fail "op %d (%s): not exact or wrong shape" i ops.(i).label)
    outcomes;
  ( List.init (Array.length ops) (fun i ->
        Workload.golden_line i (ops.(i).label, outcomes.(i))),
    List.rev !failures,
    List.rev !notes )
