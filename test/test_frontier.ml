(* Integration tests through the public Frontier facade: parsing, the
   certain-answer pipelines (the portfolio's chase and rewriting arms,
   chase entailment), and a few whole-paper scenarios knitting several
   subsystems together. *)

let parse_theory = Frontier.Parse.theory
let parse_instance = Frontier.Parse.instance
let parse_query = Frontier.Parse.query

let chase_answers ~max_depth theory d q =
  let tuples, _, _ =
    Frontier.Portfolio.Strategy.chase_arm ~max_depth theory d q
  in
  tuples

let entailed ~max_depth theory d q tuple =
  match Frontier.Entailment.entails ~max_depth theory d q tuple with
  | Frontier.Entailment.Entailed _ -> true
  | Frontier.Entailment.Not_entailed | Frontier.Entailment.Unknown -> false

let test_quickstart_pipeline () =
  let theory =
    parse_theory
      "mother: Human(y) -> exists z. Mother(y,z). human: Mother(x,y) -> Human(y)"
  in
  let db = parse_instance "Human(abel)" in
  let query = parse_query "(x) :- Mother(x, m)" in
  let via_chase = chase_answers ~max_depth:5 theory db query in
  Alcotest.(check int) "one chase answer" 1 (List.length via_chase);
  match Frontier.Portfolio.Strategy.rewriting_arm theory db query with
  | via_rew, true, _ ->
      Alcotest.(check bool) "rewriting agrees" true (via_chase = via_rew)
  | _, false, _ -> Alcotest.fail "rewriting should complete"

let test_certain_filters_skolems () =
  (* The chase arm must only report tuples over the original domain. *)
  let theory = parse_theory "Human(y) -> exists z. Mother(y,z). Mother(x,y) -> Human(y)" in
  let db = parse_instance "Human(abel)" in
  let q = parse_query "(x) :- Human(x)" in
  let answers = chase_answers ~max_depth:4 theory db q in
  Alcotest.(check int) "only abel" 1 (List.length answers)

let test_certain_tuple () =
  let theory = parse_theory "E(x,y) -> exists z. E(y,z)" in
  let db = parse_instance "E(a,b)" in
  let _, _, q3 = Frontier.Zoo.e_path_query 3 in
  Alcotest.(check bool) "path from a" true
    (entailed ~max_depth:6 theory db
       (Frontier.Cq.make ~free:[] (Frontier.Cq.atoms q3))
       [])

let test_tc_bdd_certificate () =
  (* Example 42's T_c is BDD: the saturating rewriter certifies the atomic
     query (the chain of backward steps is pruned by subsumption). *)
  let open Frontier in
  let a = Term.var "a" and b = Term.var "b" in
  let a' = Term.var "a'" and b' = Term.var "b'" in
  let q = Cq.make ~free:[] [ Atom.make Zoo.r4 [ a; b; a'; b' ] ] in
  let r = Rewrite.rewrite Zoo.t_c q in
  Alcotest.(check bool) "complete" true (r.Rewrite.outcome = Rewrite.Complete);
  (* rew = { exists Rc(...), exists E(...) }. *)
  Alcotest.(check int) "two disjuncts" 2 (Ucq.cardinal r.Rewrite.ucq);
  let edge =
    Cq.make ~free:[] [ Atom.make Zoo.e2 [ Term.var "u"; Term.var "w" ] ]
  in
  Alcotest.(check bool) "E disjunct present" true
    (Ucq.exists (fun d -> Containment.equivalent d edge) r.Rewrite.ucq)

let test_tc_rewriting_agrees_with_chase () =
  let open Frontier in
  let a = Term.var "a" and b = Term.var "b" in
  let a' = Term.var "a'" and b' = Term.var "b'" in
  let q = Cq.make ~free:[] [ Atom.make Zoo.r4 [ a; b; a'; b' ] ] in
  List.iter
    (fun d ->
      Alcotest.(check bool) "agrees" true
        (Bdd_probe.rewriting_certifies ~max_depth:6 Zoo.t_c q [ d ]))
    [
      Instances.cycle Zoo.e2 3;
      (let _, _, d = Instances.path Zoo.e2 2 in d);
      Fact_set.of_list [ Atom.make Zoo.r2 [ Term.const "x"; Term.const "y" ] ];
    ]

let test_classify_facade () =
  let r = Frontier.classify (parse_theory "E(x,y) -> exists z. E(y,z)") in
  Alcotest.(check bool) "linear" true r.Frontier.Classes.linear;
  Alcotest.(check bool) "binary" true r.Frontier.Classes.binary

let test_parse_errors_surface () =
  match parse_theory "E(x,y -> E(y,x)" with
  | exception Frontier.Parse.Error _ -> ()
  | _ -> Alcotest.fail "expected Parse.Error"

let test_multiline_theory_file_style () =
  (* The @file style content: comments, blank lines, several rules. *)
  let theory =
    parse_theory
      "# the paper's T_d\n\
       loop: true -> exists x. R(x,x), G(x,x)\n\
       \n\
       pins: dom(x) -> exists z z'. R(x,z), G(x,z')\n\
       grid: R(x,x'), G(x,u), G(u,u') -> exists z. R(u',z), G(x',z)\n"
  in
  Alcotest.(check int) "three rules" 3
    (List.length (Frontier.Theory.rules theory));
  (* It really is T_d: chase G^2 and compare against the zoo's version. *)
  let _, _, d = Frontier.Instances.path Frontier.Zoo.g2 2 in
  let r1 = Frontier.Chase_engine.run ~max_depth:2 theory d in
  let r2 = Frontier.Chase_engine.run ~max_depth:2 Frontier.Zoo.t_d d in
  Alcotest.(check bool) "same chase" true
    (Frontier.Fact_set.equal
       (Frontier.Chase_engine.result r1)
       (Frontier.Chase_engine.result r2))

let test_bd_locality_family () =
  (* Definition 40 probe: sticky theory on a degree-2 family. *)
  let family =
    List.map
      (fun n ->
        let _, _, d = Frontier.Instances.path Frontier.Zoo.r2 n in
        d)
      [ 2; 3; 4 ]
  in
  match
    Frontier.Locality.min_constant_family ~depth:3 Frontier.Zoo.t_sticky
      family ~max_l:3
  with
  | Some l -> Alcotest.(check bool) "bounded at degree 2" true (l <= 2)
  | None -> Alcotest.fail "expected a bd-locality constant"

let test_render_through_facade () =
  let d = parse_instance "R(a,b). G(b,c)" in
  let dot = Frontier.Render.to_dot d in
  Alcotest.(check bool) "dot nonempty" true (String.length dot > 40)

(* ------------------------------------------------------------------ *)
(* The Section 2 "trivial trick"                                       *)
(* ------------------------------------------------------------------ *)

let test_connectize () =
  let open Frontier in
  (* T_ex66 has a disconnected rule body; the lifted version is connected. *)
  Alcotest.(check bool) "raw disconnected" false
    (Theory.is_connected Zoo.t_ex66);
  let lifted = Transform.connectize Zoo.t_ex66 in
  Alcotest.(check bool) "lifted connected" true (Theory.is_connected lifted);
  Alcotest.(check bool) "arity raised" true (Theory.max_arity lifted = 3);
  (* Entailment transfers through the lifting. *)
  let d = Instances.ex66_instance 2 in
  let lifted_d = Transform.lift_instance d in
  let y = Term.var "y" and vv = Term.var "v" and u = Term.var "u" in
  let q =
    Cq.make ~free:[] [ Atom.make Zoo.e2 [ y; vv ]; Atom.make Zoo.e2 [ vv; u ] ]
  in
  let lifted_q = Transform.lift_query q in
  let raw = entailed ~max_depth:6 Zoo.t_ex66 d q [] in
  let lifted_res = entailed ~max_depth:6 lifted lifted_d lifted_q [] in
  Alcotest.(check bool) "entailment preserved" raw lifted_res;
  Alcotest.(check bool) "raw entails a 2-chain" true raw;
  (* The paper's caveat: the trick destroys degree bounds — the world
     constant touches everything. *)
  let g = Gaifman.of_fact_set lifted_d in
  Alcotest.(check int) "world has full degree" 
    (Term.Set.cardinal (Fact_set.domain d))
    (Gaifman.degree g Transform.default_world)

let () =
  Alcotest.run "frontier"
    [
      ( "pipelines",
        [
          Alcotest.test_case "quickstart" `Quick test_quickstart_pipeline;
          Alcotest.test_case "skolem filtering" `Quick
            test_certain_filters_skolems;
          Alcotest.test_case "certain tuple" `Quick test_certain_tuple;
          Alcotest.test_case "classify" `Quick test_classify_facade;
          Alcotest.test_case "parse errors" `Quick test_parse_errors_surface;
          Alcotest.test_case "multiline theory" `Quick
            test_multiline_theory_file_style;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "T_c BDD certificate" `Quick
            test_tc_bdd_certificate;
          Alcotest.test_case "T_c rewriting vs chase" `Quick
            test_tc_rewriting_agrees_with_chase;
          Alcotest.test_case "bd-locality family" `Quick
            test_bd_locality_family;
          Alcotest.test_case "render" `Quick test_render_through_facade;
        ] );
      ( "transform",
        [ Alcotest.test_case "connectize" `Quick test_connectize ] );
    ]
