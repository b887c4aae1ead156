(* Tests for the rewriting library: piece unifiers, saturation (Theorem 1),
   locality and distancing analyzers. *)

open Logic
module Piece_unifier = Rewriting.Piece_unifier
module Rewrite = Rewriting.Rewrite
module Single_head = Rewriting.Single_head
module Locality = Rewriting.Locality
module Distancing = Rewriting.Distancing
module Bdd = Rewriting.Bdd

let c = Term.const
let v = Term.var
let atom = Atom.make
let e = Theories.Zoo.e2

(* ------------------------------------------------------------------ *)
(* Piece unifiers                                                      *)
(* ------------------------------------------------------------------ *)

let test_atomic_query_tp () =
  (* rew(E(x,y)) with both variables free is just {E(x,y)}: the existential
     position may not unify with an answer variable. *)
  let x = v "x" and y = v "y" in
  let q = Cq.make ~free:[ x; y ] [ atom e [ x; y ] ] in
  let rewritings =
    Piece_unifier.one_step q (List.hd (Theory.rules Theories.Zoo.t_p))
  in
  Alcotest.(check int) "no rewriting" 0 (List.length rewritings)

let test_boolean_edge_tp () =
  (* exists x y. E(x,y) rewrites to an isomorphic copy of itself. *)
  let x = v "x" and y = v "y" in
  let q = Cq.make ~free:[] [ atom e [ x; y ] ] in
  let rewritings =
    Piece_unifier.one_step q (List.hd (Theory.rules Theories.Zoo.t_p))
  in
  Alcotest.(check int) "one rewriting" 1 (List.length rewritings);
  Alcotest.(check bool) "isomorphic to the query" true
    (Containment.equivalent q (List.hd rewritings))

let test_separating_variable_blocked () =
  (* In exists x y z. E(x,y), E(y,z), the atom E(x,y) cannot be rewritten:
     y is shared with the rest of the query (separating) and would have to
     unify with the rule's existential position. *)
  let x = v "x" and y = v "y" and z = v "z" in
  let q = Cq.make ~free:[] [ atom e [ x; y ]; atom e [ y; z ] ] in
  let rewritings =
    Piece_unifier.one_step q (List.hd (Theory.rules Theories.Zoo.t_p))
  in
  (* Only the last atom E(y,z) is rewritable; the result cores down to a
     single edge ([one_step] leaves the coring to the saturation). *)
  Alcotest.(check int) "one rewriting" 1 (List.length rewritings);
  Alcotest.(check int) "cored to one atom" 1
    (Cq.size (Containment.core_of_query (List.hd rewritings)))

(* ------------------------------------------------------------------ *)
(* Saturation                                                          *)
(* ------------------------------------------------------------------ *)

let test_rew_ta_mother () =
  (* rew(exists y. Mother(x,y)) under T_a =
     { Mother(x,y) | Human(x) | Mother(z,x) }. *)
  let x = v "x" and y = v "y" in
  let q = Cq.make ~free:[ x ] [ atom Theories.Zoo.mother [ x; y ] ] in
  let r = Rewrite.rewrite Theories.Zoo.t_a q in
  Alcotest.(check bool) "complete" true (r.Rewrite.outcome = Rewrite.Complete);
  Alcotest.(check int) "three disjuncts" 3 (Ucq.cardinal r.Rewrite.ucq);
  let human_x = Cq.make ~free:[ x ] [ atom Theories.Zoo.human [ x ] ] in
  Alcotest.(check bool) "contains Human(x)" true
    (Ucq.exists (fun d -> Containment.equivalent d human_x) r.Rewrite.ucq)

let test_rew_selfloop_loopcut () =
  (* Under T_loopcut, exists x. E(x,x) is equivalent over instances to
     exists x y. E(x,y). *)
  let x = v "x" and y = v "y" in
  let q = Cq.make ~free:[] [ atom e [ x; x ] ] in
  let r = Rewrite.rewrite Theories.Zoo.t_loopcut q in
  Alcotest.(check bool) "complete" true (r.Rewrite.outcome = Rewrite.Complete);
  let edge = Cq.make ~free:[] [ atom e [ x; y ] ] in
  Alcotest.(check bool) "edge disjunct present" true
    (Ucq.exists (fun d -> Containment.equivalent d edge) r.Rewrite.ucq);
  Alcotest.(check bool) "UCQ true on a single edge" true
    (Ucq.boolean_holds r.Rewrite.ucq
       (Theories.Instances.single_edge e))

let test_loopcut_paths_counters () =
  (* The benchmark's rewrite-loopcut workload: E^n under T_loopcut for
     n = 7..11. The rewriting cores only the candidates its dedup has not
     seen; these counters were recorded when every candidate was cored
     inside the piece unifier, and must not move. Columns: steps,
     generated, disjuncts, admitted, deduped. *)
  List.iter
    (fun (n, steps, generated, disjuncts, admitted, deduped) ->
      let _, _, q = Theories.Zoo.e_path_query n in
      let r = Rewrite.rewrite Theories.Zoo.t_loopcut q in
      let totals = r.Rewrite.kernel_stats.Saturation.Stats.totals in
      let check what = Alcotest.(check int) (Printf.sprintf "E^%d %s" n what) in
      Alcotest.(check bool) "complete" true
        (r.Rewrite.outcome = Rewrite.Complete);
      check "steps" steps r.Rewrite.steps;
      check "generated" generated r.Rewrite.generated;
      check "disjuncts" disjuncts (Ucq.cardinal r.Rewrite.ucq);
      check "admitted" admitted totals.Saturation.Stats.admitted;
      check "deduped" deduped totals.Saturation.Stats.deduped)
    [
      (7, 9, 186, 7, 12, 174);
      (8, 10, 377, 8, 14, 363);
      (9, 11, 760, 9, 16, 744);
      (10, 12, 1527, 10, 18, 1509);
      (11, 13, 3062, 11, 20, 3042);
    ]

let test_size_budget_on_deduped_candidate () =
  (* Under T_p, exists x y. E(x,y) rewrites only to isomorphic copies of
     itself, which the dedup drops on their canonical id without coring
     them. A size budget below the query's one atom must still trip on
     the first of them, as it did when every candidate was cored first. *)
  let x = v "x" and y = v "y" in
  let q = Cq.make ~free:[] [ atom e [ x; y ] ] in
  let budget =
    { Rewrite.max_disjuncts = 10; max_atoms_per_disjunct = 0; max_steps = 10 }
  in
  let r = Rewrite.rewrite ~budget Theories.Zoo.t_p q in
  Alcotest.(check bool) "size budget" true
    (r.Rewrite.outcome = Rewrite.Size_budget)

let test_runs_are_independent () =
  (* Every field of a rewriting's result depends on theory, query and
     budget alone: a run in between, here E^8, must not move a counter
     of the E^9 run that follows it. *)
  let summary n =
    let _, _, q = Theories.Zoo.e_path_query n in
    let r = Rewrite.rewrite Theories.Zoo.t_loopcut q in
    let k = r.Rewrite.kernel_stats in
    ( List.sort compare (List.map Cq.iso_key (Ucq.disjuncts r.Rewrite.ucq)),
      (r.Rewrite.outcome = Rewrite.Complete, r.Rewrite.steps,
       r.Rewrite.generated),
      (r.Rewrite.containment_checks, r.Rewrite.dedup_hits,
       r.Rewrite.index_pruned, r.Rewrite.component_splits),
      (k.Saturation.Stats.rounds, k.Saturation.Stats.totals) )
  in
  let first = summary 9 in
  ignore (summary 8);
  Alcotest.(check bool) "E^9 after E^8: same result and counters" true
    (first = summary 9)

let test_rs_linear_growth () =
  (* Observation 31 shape check on the linear T_p: the endpoint-pinned path
     query has rs equal to its own size. *)
  List.iter
    (fun n ->
      let _, _, q = Theories.Zoo.e_path_query n in
      match Rewrite.rs Theories.Zoo.t_p q with
      | Some rs -> Alcotest.(check int) (Printf.sprintf "rs path %d" n) n rs
      | None -> Alcotest.fail "rewriting should complete")
    [ 1; 2; 3; 4 ]

let test_nonbdd_diverges () =
  (* Example 41: the rewriting of exists u. R(x,u) for answer x grows
     unboundedly — the budget must trip. *)
  let x = v "x" and u = v "u" in
  let q = Cq.make ~free:[ x ] [ atom Theories.Zoo.r2 [ x; u ] ] in
  let budget =
    { Rewrite.max_disjuncts = 40; max_atoms_per_disjunct = 25; max_steps = 200 }
  in
  let r = Rewrite.rewrite ~budget Theories.Zoo.t_nonbdd q in
  Alcotest.(check bool) "budget exhausted" true
    (r.Rewrite.outcome <> Rewrite.Complete)

let test_e28_completes_with_growing_rew () =
  (* Example 28 truncations are BDD; the rewriting of an E_0-atom query
     walks up through all levels, one disjunct per level. *)
  let x = v "x" and y = v "y" in
  let q = Cq.make ~free:[] [ atom (Theories.Zoo.e_k 0) [ x; y ] ] in
  List.iter
    (fun n ->
      let r = Rewrite.rewrite (Theories.Zoo.t_e28 n) q in
      Alcotest.(check bool) "complete" true
        (r.Rewrite.outcome = Rewrite.Complete);
      Alcotest.(check int)
        (Printf.sprintf "disjuncts for n=%d" n)
        (n + 1)
        (Ucq.cardinal r.Rewrite.ucq))
    [ 1; 2; 3 ]

let test_split_batch_large_frontier () =
  (* A divergent saturation accumulates frontiers far beyond the stack
     depth a naive [List.take]-style split would survive; [split_batch]
     must stay tail-recursive and order-preserving at that scale. *)
  let n = 1_000_000 in
  let l = List.init n Fun.id in
  let batch, rest = Rewrite.split_batch 600_000 l in
  Alcotest.(check int) "batch size" 600_000 (List.length batch);
  Alcotest.(check int) "rest size" 400_000 (List.length rest);
  Alcotest.(check int) "batch starts at head" 0 (List.hd batch);
  Alcotest.(check int) "rest continues in order" 600_000 (List.hd rest);
  Alcotest.(check bool) "concatenation restores the frontier" true
    (List.equal Int.equal l (batch @ rest));
  let all, none = Rewrite.split_batch (n + 1) l in
  Alcotest.(check bool) "oversized batch takes everything" true
    (List.equal Int.equal l all && none = []);
  let empty, everything = Rewrite.split_batch 0 l in
  Alcotest.(check bool) "zero batch defers everything" true
    (empty = [] && List.equal Int.equal l everything)

(* ------------------------------------------------------------------ *)
(* Rewriting vs chase: the Theorem 1 equivalence, on random instances  *)
(* ------------------------------------------------------------------ *)

let gen_edges = QCheck.Gen.(list_size (1 -- 6) (pair (0 -- 3) (0 -- 3)))

let fact_set_of_edges edges =
  Fact_set.of_list
    (List.map
       (fun (i, j) ->
         atom e [ c (Printf.sprintf "x%d" i); c (Printf.sprintf "x%d" j) ])
       edges)

let prop_rewriting_agrees_with_chase_tp =
  QCheck.Test.make ~count:50 ~name:"rew(q) over D = chase entailment (T_p)"
    (QCheck.make gen_edges) (fun edges ->
      let d = fact_set_of_edges edges in
      let _, _, q3 = Theories.Zoo.e_path_query 3 in
      let q = Cq.make ~free:[] (Cq.atoms q3) in
      Bdd.rewriting_certifies ~max_depth:8 Theories.Zoo.t_p q [ d ])

let prop_rewriting_agrees_with_chase_loopcut =
  QCheck.Test.make ~count:50
    ~name:"rew(q) over D = chase entailment (T_loopcut)"
    (QCheck.make gen_edges) (fun edges ->
      let d = fact_set_of_edges edges in
      let x = v "x" in
      let q = Cq.make ~free:[] [ atom e [ x; x ] ] in
      Bdd.rewriting_certifies ~max_depth:8 Theories.Zoo.t_loopcut q [ d ])

let prop_rewriting_agrees_with_chase_ta_answers =
  QCheck.Test.make ~count:30
    ~name:"rew(q) with answers = chase entailment (T_a)"
    (QCheck.make QCheck.Gen.(list_size (1 -- 4) (0 -- 3)))
    (fun humans ->
      let d =
        Fact_set.of_list
          (List.map
             (fun i -> atom Theories.Zoo.human [ c (Printf.sprintf "h%d" i) ])
             humans)
      in
      let x = v "x" and y = v "y" in
      let q = Cq.make ~free:[ x ] [ atom Theories.Zoo.mother [ x; y ] ] in
      Bdd.rewriting_certifies ~max_depth:6 Theories.Zoo.t_a q [ d ])

let test_backward_shy () =
  (* Sticky theories are backward shy (footnote 30): the rewriting of the
     atomic query has no repeated bound variable. *)
  let x = v "x" in
  let q =
    Cq.make ~free:[ x ]
      [ atom Theories.Zoo.e4 [ x; v "b1"; v "b2"; v "t" ] ]
  in
  let r = Rewrite.rewrite Theories.Zoo.t_sticky q in
  Alcotest.(check bool) "complete" true (r.Rewrite.outcome = Rewrite.Complete);
  Alcotest.(check bool) "sticky rewriting backward shy" true
    (Bdd.backward_shy_rewriting q r.Rewrite.ucq);
  (* T_d's rewriting of phi_R^2 is NOT backward shy: the G^4 disjunct has
     repeated interior variables. *)
  let _, _, phi2 = Theories.Zoo.phi_r 2 in
  let res = Marked.Process.rewrite_td phi2 in
  Alcotest.(check bool) "T_d rewriting not backward shy" false
    (Bdd.backward_shy_rewriting phi2 res.Marked.Process.rewriting);
  (* Sanity of the repeated-bound-variables detector itself. *)
  let y = v "y" and m = v "mrb" in
  let path2 = Cq.make ~free:[ x; y ] [ atom e [ x; m ]; atom e [ m; y ] ] in
  Alcotest.(check int) "m repeats" 1
    (List.length (Bdd.repeated_bound_vars path2))

(* ------------------------------------------------------------------ *)
(* Single-head compilation                                             *)
(* ------------------------------------------------------------------ *)

let test_single_head_compile () =
  let compiled, aux = Single_head.compile Theories.Zoo.t_d in
  Alcotest.(check int) "9 rules (3 per multi-head rule)" 9
    (List.length (Theory.rules compiled));
  Alcotest.(check int) "3 aux predicates" 3 (Symbol.Set.cardinal aux);
  Alcotest.(check bool) "all single-head" true (Theory.is_single_head compiled)

let test_single_head_chase_equivalent () =
  (* The compiled chase entails the same boolean queries over the original
     signature (with a depth factor of 2). *)
  let compiled, _ = Single_head.compile Theories.Zoo.t_d in
  let _, _, d = Theories.Instances.path Theories.Zoo.g2 2 in
  let run_orig = Chase.Engine.run ~max_depth:3 ~max_atoms:20_000 Theories.Zoo.t_d d in
  let run_comp = Chase.Engine.run ~max_depth:6 ~max_atoms:40_000 compiled d in
  let queries =
    [
      (let x = v "x" and y = v "y" and z = v "z" in
       Cq.make ~free:[]
         [ atom Theories.Zoo.r2 [ x; y ]; atom Theories.Zoo.g2 [ y; z ] ]);
      (let x = v "x" in Cq.make ~free:[] [ atom Theories.Zoo.r2 [ x; x ] ]);
      (let x = v "x" and y = v "y" in
       Cq.make ~free:[]
         [ atom Theories.Zoo.r2 [ x; y ]; atom Theories.Zoo.r2 [ y; x ] ]);
    ]
  in
  List.iter
    (fun q ->
      let orig = Cq.boolean_holds q (Chase.Engine.stage run_orig 2) in
      let comp = Cq.boolean_holds q (Chase.Engine.stage run_comp 4) in
      Alcotest.(check bool) "same boolean answer" orig comp)
    queries

(* ------------------------------------------------------------------ *)
(* Locality analyzers                                                  *)
(* ------------------------------------------------------------------ *)

let test_subsets_up_to () =
  Alcotest.(check int) "subsets of 4 up to 2" 10
    (List.length (Locality.subsets_up_to 2 [ 1; 2; 3; 4 ]));
  Alcotest.(check int) "subsets of 3 up to 3" 7
    (List.length (Locality.subsets_up_to 3 [ 1; 2; 3 ]))

let test_tp_is_local () =
  (* Linear theories are local with constant 1 (Section 7). *)
  let _, _, d = Theories.Instances.path e 4 in
  Alcotest.(check (list string)) "no defects at l=1" []
    (List.map (Fmt.str "%a" Atom.pp)
       (Locality.defects ~depth:3 Theories.Zoo.t_p d ~l:1));
  Alcotest.(check (option int)) "min constant 1" (Some 1)
    (Locality.min_constant ~depth:3 Theories.Zoo.t_p d ~max_l:3)

let test_sticky_star_not_local () =
  (* Example 39: the star with k colours demands locality constant k+1. *)
  let star = Theories.Instances.sticky_star 3 in
  Alcotest.(check bool) "defects at l=3" true
    (Locality.defects ~depth:3 Theories.Zoo.t_sticky star ~l:3 <> []);
  Alcotest.(check (option int)) "min constant = 4" (Some 4)
    (Locality.min_constant ~depth:3 Theories.Zoo.t_sticky star ~max_l:5)

let test_tc_cycle_needs_everything () =
  (* Example 42: on the n-cycle, some chase atom requires all n facts. *)
  let n = 4 in
  let cyc = Theories.Instances.cycle e n in
  match Locality.max_support ~depth:n ~sub_depth:n Theories.Zoo.t_c cyc with
  | Some s -> Alcotest.(check int) "support = n" n s
  | None -> Alcotest.fail "support should be computable"

(* ------------------------------------------------------------------ *)
(* Distancing                                                          *)
(* ------------------------------------------------------------------ *)

let test_td_contracts_distances () =
  (* On G^8, the endpoints are at distance 8 in D but reachable in ~6 steps
     in the chase via the doubling grid: contraction ratio > 1 (on shorter
     paths the detour through R-levels is still longer than the path). *)
  let _, _, d = Theories.Instances.path Theories.Zoo.g2 8 in
  let run = Chase.Engine.run ~max_depth:6 ~max_atoms:100_000 Theories.Zoo.t_d d in
  match Distancing.max_contraction run with
  | Some (_, ratio) ->
      Alcotest.(check bool) "contraction observed" true (ratio > 1.0)
  | None -> Alcotest.fail "pairs should be connected in the chase"

let test_tp_does_not_contract () =
  let _, _, d = Theories.Instances.path e 5 in
  let run = Chase.Engine.run ~max_depth:5 Theories.Zoo.t_p d in
  match Distancing.max_contraction run with
  | Some (_, ratio) ->
      Alcotest.(check bool) "no contraction for linear" true (ratio <= 1.0)
  | None -> Alcotest.fail "path is connected"

let () =
  Alcotest.run "rewriting"
    [
      ( "piece_unifier",
        [
          Alcotest.test_case "atomic free query" `Quick test_atomic_query_tp;
          Alcotest.test_case "boolean edge" `Quick test_boolean_edge_tp;
          Alcotest.test_case "separating variable" `Quick
            test_separating_variable_blocked;
        ] );
      ( "saturation",
        [
          Alcotest.test_case "rew under T_a" `Quick test_rew_ta_mother;
          Alcotest.test_case "selfloop under T_loopcut" `Quick
            test_rew_selfloop_loopcut;
          Alcotest.test_case "rs linear for T_p" `Quick test_rs_linear_growth;
          Alcotest.test_case "example 41 diverges" `Quick test_nonbdd_diverges;
          Alcotest.test_case "split_batch on a huge frontier" `Quick
            test_split_batch_large_frontier;
          Alcotest.test_case "example 28 ladder" `Quick
            test_e28_completes_with_growing_rew;
          Alcotest.test_case "backward shy (footnote 30)" `Quick
            test_backward_shy;
          Alcotest.test_case "E^7..E^11 under T_loopcut: counters" `Quick
            test_loopcut_paths_counters;
          Alcotest.test_case "size budget on a deduplicated candidate" `Quick
            test_size_budget_on_deduped_candidate;
          Alcotest.test_case "runs in one process are independent" `Quick
            test_runs_are_independent;
        ] );
      ( "chase agreement",
        [
          QCheck_alcotest.to_alcotest prop_rewriting_agrees_with_chase_tp;
          QCheck_alcotest.to_alcotest prop_rewriting_agrees_with_chase_loopcut;
          QCheck_alcotest.to_alcotest
            prop_rewriting_agrees_with_chase_ta_answers;
        ] );
      ( "single_head",
        [
          Alcotest.test_case "compile shape" `Quick test_single_head_compile;
          Alcotest.test_case "chase equivalence" `Quick
            test_single_head_chase_equivalent;
        ] );
      ( "locality",
        [
          Alcotest.test_case "subsets" `Quick test_subsets_up_to;
          Alcotest.test_case "T_p local" `Quick test_tp_is_local;
          Alcotest.test_case "sticky star not local" `Quick
            test_sticky_star_not_local;
          Alcotest.test_case "T_c needs the whole cycle" `Quick
            test_tc_cycle_needs_everything;
        ] );
      ( "distancing",
        [
          Alcotest.test_case "T_d contracts" `Quick test_td_contracts_distances;
          Alcotest.test_case "T_p does not" `Quick test_tp_does_not_contract;
        ] );
    ]
