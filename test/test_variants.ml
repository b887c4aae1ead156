(* Tests for the chase variants (oblivious / restricted), the executable
   exercises, and the rendering helpers. *)

open Logic

let c = Term.const
let atom = Atom.make

(* ------------------------------------------------------------------ *)
(* Restricted chase                                                    *)
(* ------------------------------------------------------------------ *)

let test_restricted_terminates_on_spouse () =
  (* T_spouse: the restricted chase closes the spouse loop with one null
     and stops; the semi-oblivious chase keeps inventing spouses forever. *)
  let d = Fact_set.of_list [ atom Theories.Zoo.person [ c "alice" ] ] in
  let r = Chase.Variants.run_restricted Theories.Zoo.t_spouse d in
  Alcotest.(check bool) "restricted saturates" true r.Chase.Variants.saturated;
  Alcotest.(check bool) "small model" true
    (Fact_set.cardinal r.Chase.Variants.facts <= 6);
  Alcotest.(check bool) "result is a model" true
    (Theory.satisfied_in Theories.Zoo.t_spouse r.Chase.Variants.facts);
  let so = Chase.Engine.run ~max_depth:8 Theories.Zoo.t_spouse d in
  Alcotest.(check bool) "semi-oblivious does not saturate" false
    (Chase.Engine.saturated so)

let test_restricted_diverges_on_loopcut () =
  (* Once E(b, null) is added, the null needs its own successor: the
     restricted chase of Exercise 23's theory does not terminate either
     (termination differences are direction-specific). *)
  let d = Theories.Instances.single_edge Theories.Zoo.e2 in
  let r =
    Chase.Variants.run_restricted ~max_applications:60 Theories.Zoo.t_loopcut
      d
  in
  Alcotest.(check bool) "budget trips" false r.Chase.Variants.saturated

let test_restricted_respects_existing_witnesses () =
  (* On a closed model nothing fires at all. *)
  let d =
    Fact_set.of_list
      [ atom Theories.Zoo.e2 [ c "a"; c "b" ]; atom Theories.Zoo.e2 [ c "b"; c "b" ] ]
  in
  let r = Chase.Variants.run_restricted Theories.Zoo.t_p d in
  Alcotest.(check bool) "saturated" true r.Chase.Variants.saturated;
  Alcotest.(check int) "no applications" 0 r.Chase.Variants.steps;
  Alcotest.(check int) "unchanged" 2 (Fact_set.cardinal r.Chase.Variants.facts)

let test_restricted_runs_are_equal () =
  (* Nulls are numbered per run, so two runs on one input agree. *)
  let d = Fact_set.of_list [ atom Theories.Zoo.person [ c "abel" ] ] in
  let run () =
    (Chase.Variants.run_restricted Theories.Zoo.t_spouse d).Chase.Variants.facts
  in
  let r1 = run () in
  let r2 = run () in
  Alcotest.(check bool) "equal fact sets" true (Fact_set.equal r1 r2)

let test_restricted_avoids_input_nulls () =
  (* The input already names [_null1]: abel's spouse must be a new null,
     not [_null1], so both persons get a spouse of their own. *)
  let d =
    Fact_set.of_list
      [ atom Theories.Zoo.person [ c "abel" ];
        atom Theories.Zoo.person [ c "_null1" ] ]
  in
  let r = Chase.Variants.run_restricted Theories.Zoo.t_spouse d in
  let facts = r.Chase.Variants.facts in
  Alcotest.(check bool) "saturates" true r.Chase.Variants.saturated;
  Alcotest.(check bool) "abel is not paired with the input's _null1" false
    (Fact_set.mem (atom Theories.Zoo.knows [ c "abel"; c "_null1" ]) facts);
  Alcotest.(check int) "two minted nulls" 2
    (Term.Set.cardinal
       (Term.Set.diff (Fact_set.domain facts) (Fact_set.domain d)))

(* ------------------------------------------------------------------ *)
(* Oblivious chase                                                     *)
(* ------------------------------------------------------------------ *)

let test_oblivious_is_coarser () =
  (* A fork: two edges into b. Semi-oblivious invents one successor of b
     (frontier = y only); oblivious invents one per trigger (x matters). *)
  let d =
    Fact_set.of_list
      [
        atom Theories.Zoo.e2 [ c "a1"; c "b" ];
        atom Theories.Zoo.e2 [ c "a2"; c "b" ];
      ]
  in
  let so = Chase.Engine.run ~max_depth:1 Theories.Zoo.t_p d in
  let ob = Chase.Variants.run_oblivious ~max_depth:1 Theories.Zoo.t_p d in
  Alcotest.(check int) "semi-oblivious adds one" 3
    (Fact_set.cardinal (Chase.Engine.result so));
  Alcotest.(check int) "oblivious adds two" 4
    (Fact_set.cardinal ob.Chase.Variants.facts)

let test_oblivious_agrees_on_entailment () =
  (* Both chases are universal models: boolean queries agree (within
     matching depth windows). *)
  let _, _, d = Theories.Instances.path Theories.Zoo.e2 2 in
  let so = Chase.Engine.run ~max_depth:4 Theories.Zoo.t_p d in
  let ob = Chase.Variants.run_oblivious ~max_depth:4 Theories.Zoo.t_p d in
  List.iter
    (fun n ->
      let _, _, q = Theories.Zoo.e_path_query n in
      let bq = Cq.make ~free:[] (Cq.atoms q) in
      Alcotest.(check bool)
        (Printf.sprintf "path %d agrees" n)
        (Cq.boolean_holds bq (Chase.Engine.result so))
        (Cq.boolean_holds bq ob.Chase.Variants.facts))
    [ 1; 2; 3; 4; 5 ]

let test_oblivious_ex66_blowup () =
  (* Footnote 15 / Example 66: with m P-facts the oblivious chase invents
     one successor per (edge, P-fact) pair. *)
  let m = 4 in
  let d = Theories.Instances.ex66_instance m in
  let so = Chase.Engine.run ~max_depth:4 Theories.Zoo.t_ex66 d in
  let ob =
    Chase.Variants.run_oblivious ~max_depth:4 ~max_atoms:50_000
      Theories.Zoo.t_ex66 d
  in
  let count_e fs =
    List.length
      (List.filter
         (fun a -> Symbol.equal (Atom.rel a) Theories.Zoo.e2)
         (Fact_set.atoms fs))
  in
  Alcotest.(check bool) "oblivious strictly bigger" true
    (count_e ob.Chase.Variants.facts > count_e (Chase.Engine.result so))

(* ------------------------------------------------------------------ *)
(* Core chase                                                          *)
(* ------------------------------------------------------------------ *)

let test_core_chase_terminates_on_fes () =
  (* FES theories: the core chase reaches the finite universal model even
     though the semi-oblivious chase is infinite. *)
  let d = Theories.Instances.single_edge Theories.Zoo.e2 in
  let r = Chase.Variants.run_core Theories.Zoo.t_loopcut d in
  Alcotest.(check bool) "terminates" true r.Chase.Variants.saturated;
  Alcotest.(check bool) "result is a model" true
    (Theory.satisfied_in Theories.Zoo.t_loopcut r.Chase.Variants.facts);
  Alcotest.(check bool) "contains D" true
    (Fact_set.subset d r.Chase.Variants.facts);
  Alcotest.(check bool) "small (the core)" true
    (Fact_set.cardinal r.Chase.Variants.facts <= 3);
  let sp =
    Chase.Variants.run_core Theories.Zoo.t_spouse
      (Fact_set.of_list [ atom Theories.Zoo.person [ c "ada" ] ])
  in
  Alcotest.(check bool) "T_spouse terminates too" true
    sp.Chase.Variants.saturated

let test_core_chase_diverges_on_non_fes () =
  let d = Theories.Instances.single_edge Theories.Zoo.e2 in
  let r = Chase.Variants.run_core ~max_rounds:8 Theories.Zoo.t_p d in
  Alcotest.(check bool) "T_p core chase never stops" false
    r.Chase.Variants.saturated

let test_core_chase_agrees_with_fes_verdict () =
  (* Cross-validate against the Definition 20 search. *)
  List.iter
    (fun (name, theory, d) ->
      let core_chase_terminates =
        (Chase.Variants.run_core ~max_rounds:8 theory d).Chase.Variants.saturated
      in
      let fes =
        match
          Chase.Termination.core_terminates_on ~max_c:6 ~lookahead:4 theory d
        with
        | Chase.Termination.Holds _ -> true
        | _ -> false
      in
      Alcotest.(check bool) (name ^ ": verdicts agree") fes
        core_chase_terminates)
    [
      ("t_loopcut", Theories.Zoo.t_loopcut,
       Theories.Instances.single_edge Theories.Zoo.e2);
      ("t_p", Theories.Zoo.t_p,
       Theories.Instances.single_edge Theories.Zoo.e2);
      ("t_spouse", Theories.Zoo.t_spouse,
       Fact_set.of_list [ atom Theories.Zoo.person [ c "p0" ] ]);
      ("t_a", Theories.Zoo.t_a, Theories.Instances.human_abel);
    ]

(* ------------------------------------------------------------------ *)
(* Exercises                                                           *)
(* ------------------------------------------------------------------ *)

let test_exercise13_bounded_for_connected () =
  (* T_loopcut is connected: chase-adjacent instance constants stay at
     bounded instance distance, across instance sizes. *)
  List.iter
    (fun n ->
      let _, _, d = Theories.Instances.path Theories.Zoo.e2 n in
      let run = Chase.Engine.run ~max_depth:5 Theories.Zoo.t_loopcut d in
      match Rewriting.Exercises.adjacency_contraction run with
      | Some k ->
          Alcotest.(check bool)
            (Printf.sprintf "bounded at n=%d" n)
            true (k <= 2)
      | None -> Alcotest.fail "connected theory: pairs must stay connected")
    [ 2; 4; 6 ]

let test_exercise13_fails_for_disconnected () =
  (* T_ex66 has a disconnected rule body: the chase makes b_i adjacent to
     the E-chain although they share no component in D — exactly why the
     paper restricts to connected theories. *)
  let d = Theories.Instances.ex66_instance 3 in
  let run = Chase.Engine.run ~max_depth:4 Theories.Zoo.t_ex66 d in
  Alcotest.(check bool) "violation witnessed" true
    (Rewriting.Exercises.adjacency_contraction run = None)

let test_exercise17_delay_bounded () =
  (* Facts about terms appear within a constant number of stages of the
     terms' creation, across instance sizes. *)
  List.iter
    (fun (name, theory, d) ->
      let run = Chase.Engine.run ~max_depth:6 ~max_atoms:60_000 theory d in
      Alcotest.(check bool)
        (name ^ " delay small")
        true
        (Rewriting.Exercises.atom_delay run <= 2))
    [
      ("t_loopcut",
       Theories.Zoo.t_loopcut,
       (let _, _, d = Theories.Instances.path Theories.Zoo.e2 4 in d));
      ("t_d",
       Theories.Zoo.t_d,
       (let _, _, d = Theories.Instances.path Theories.Zoo.g2 3 in d));
      ("t_spouse",
       Theories.Zoo.t_spouse,
       Fact_set.of_list [ atom Theories.Zoo.person [ c "p" ] ]);
    ]

let test_term_birth_stages () =
  let d = Theories.Instances.human_abel in
  let run = Chase.Engine.run ~max_depth:3 Theories.Zoo.t_a d in
  let births = Rewriting.Exercises.term_birth_stages run in
  Alcotest.(check (option int)) "Abel born at 0" (Some 0)
    (Term.Map.find_opt (c "Abel") births);
  let depth1_terms =
    Term.Map.filter (fun _ s -> s = 1) births |> Term.Map.cardinal
  in
  Alcotest.(check int) "one term invented at stage 1" 1 depth1_terms

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let test_render_dot () =
  let _, _, d = Theories.Instances.path Theories.Zoo.g2 2 in
  let run = Chase.Engine.run ~max_depth:1 ~max_atoms:5_000 Theories.Zoo.t_d d in
  let dot =
    Render.to_dot ~highlight:(Fact_set.domain d) (Chase.Engine.result run)
  in
  let contains needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "digraph" true (contains "digraph" dot);
  Alcotest.(check bool) "red edges" true (contains "color=red" dot);
  Alcotest.(check bool) "green edges" true (contains "color=green3" dot);
  Alcotest.(check bool) "highlights" true (contains "doublecircle" dot)

let test_edge_listing () =
  let _, _, d = Theories.Instances.path Theories.Zoo.g2 3 in
  let listing = Render.edge_listing d in
  Alcotest.(check int) "three lines" 3
    (List.length (String.split_on_char '\n' listing));
  let truncated = Render.edge_listing ~max_edges:2 d in
  Alcotest.(check int) "truncation marker" 3
    (List.length (String.split_on_char '\n' truncated))

(* ------------------------------------------------------------------ *)
(* Properties over random theories                                     *)
(* ------------------------------------------------------------------ *)

let prop_restricted_model_when_saturated =
  QCheck.Test.make ~count:40
    ~name:"restricted chase result is a model when saturated"
    (QCheck.make (QCheck.Gen.int_bound 1000))
    (fun seed ->
      let theory =
        Theories.Generators.random_linear_binary ~seed ~rels:3 ~rules:3
      in
      let d =
        Theories.Generators.random_instance_for ~seed theory ~nodes:3 ~facts:5
      in
      let r =
        Chase.Variants.run_restricted ~max_applications:300 ~max_atoms:5_000
          theory d
      in
      (not r.Chase.Variants.saturated)
      || Theory.satisfied_in theory r.Chase.Variants.facts)

let prop_core_chase_model_when_saturated =
  QCheck.Test.make ~count:30
    ~name:"core chase result is a model when saturated"
    (QCheck.make (QCheck.Gen.int_bound 1000))
    (fun seed ->
      let theory =
        Theories.Generators.random_linear_binary ~seed ~rels:2 ~rules:3
      in
      let d =
        Theories.Generators.random_instance_for ~seed theory ~nodes:3 ~facts:4
      in
      let r =
        Chase.Variants.run_core ~max_rounds:6 ~max_atoms:5_000 theory d
      in
      (not r.Chase.Variants.saturated)
      || Theory.satisfied_in theory r.Chase.Variants.facts
         && Fact_set.subset d r.Chase.Variants.facts)

let prop_oblivious_contains_semi_entailment =
  QCheck.Test.make ~count:30
    ~name:"semi-oblivious positives hold in the oblivious chase"
    (QCheck.make (QCheck.Gen.int_bound 1000))
    (fun seed ->
      let theory =
        Theories.Generators.random_linear_binary ~seed ~rels:2 ~rules:3
      in
      let d =
        Theories.Generators.random_instance_for ~seed theory ~nodes:3 ~facts:4
      in
      QCheck.assume (not (Fact_set.is_empty d));
      let so = Chase.Engine.run ~max_depth:3 ~max_atoms:5_000 theory d in
      let ob =
        Chase.Variants.run_oblivious ~max_depth:3 ~max_atoms:20_000 theory d
      in
      (* Any boolean 2-path query over the signature agrees positively. *)
      List.for_all
        (fun rel ->
          let x = Term.var "px" and y = Term.var "py" and z = Term.var "pz" in
          let q =
            Cq.make ~free:[]
              [ Atom.make rel [ x; y ]; Atom.make rel [ y; z ] ]
          in
          (not (Cq.boolean_holds q (Chase.Engine.result so)))
          || Cq.boolean_holds q ob.Chase.Variants.facts)
        (List.filter
           (fun s -> Symbol.arity s = 2)
           (Symbol.Set.elements (Theory.signature theory))))

let () =
  Alcotest.run "variants"
    [
      ( "restricted",
        [
          Alcotest.test_case "terminates on T_spouse" `Quick
            test_restricted_terminates_on_spouse;
          Alcotest.test_case "diverges on T_loopcut" `Quick
            test_restricted_diverges_on_loopcut;
          Alcotest.test_case "respects witnesses" `Quick
            test_restricted_respects_existing_witnesses;
          Alcotest.test_case "two runs on the same input are equal" `Quick
            test_restricted_runs_are_equal;
          Alcotest.test_case "input nulls are not minted again" `Quick
            test_restricted_avoids_input_nulls;
        ] );
      ( "oblivious",
        [
          Alcotest.test_case "coarser than semi-oblivious" `Quick
            test_oblivious_is_coarser;
          Alcotest.test_case "entailment agrees" `Quick
            test_oblivious_agrees_on_entailment;
          Alcotest.test_case "example 66 blow-up" `Quick
            test_oblivious_ex66_blowup;
        ] );
      ( "core chase",
        [
          Alcotest.test_case "terminates on FES" `Quick
            test_core_chase_terminates_on_fes;
          Alcotest.test_case "diverges on non-FES" `Quick
            test_core_chase_diverges_on_non_fes;
          Alcotest.test_case "agrees with FES verdict" `Quick
            test_core_chase_agrees_with_fes_verdict;
        ] );
      ( "exercises",
        [
          Alcotest.test_case "exercise 13 bounded" `Quick
            test_exercise13_bounded_for_connected;
          Alcotest.test_case "exercise 13 needs connectivity" `Quick
            test_exercise13_fails_for_disconnected;
          Alcotest.test_case "exercise 17 delay" `Quick
            test_exercise17_delay_bounded;
          Alcotest.test_case "term births" `Quick test_term_birth_stages;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_restricted_model_when_saturated;
          QCheck_alcotest.to_alcotest prop_core_chase_model_when_saturated;
          QCheck_alcotest.to_alcotest prop_oblivious_contains_semi_entailment;
        ] );
      ( "render",
        [
          Alcotest.test_case "dot output" `Quick test_render_dot;
          Alcotest.test_case "edge listing" `Quick test_edge_listing;
        ] );
    ]
