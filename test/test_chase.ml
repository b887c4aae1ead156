(* Tests for the chase library: the semi-oblivious Skolem chase engine,
   entailment, cores and termination, against the paper's examples. *)

open Logic

let c = Term.const
let v = Term.var
let atom = Atom.make

(* ------------------------------------------------------------------ *)
(* Example 7: the chase of T_a on {Human(Abel)}                        *)
(* ------------------------------------------------------------------ *)

let test_example7_stages () =
  let run = Chase.Engine.run ~max_depth:3 Theories.Zoo.t_a Theories.Instances.human_abel in
  let abel = c "Abel" in
  Alcotest.(check int) "Ch_0 is D" 1
    (Fact_set.cardinal (Chase.Engine.stage run 0));
  let ch1 = Chase.Engine.stage run 1 in
  Alcotest.(check int) "Ch_1 adds Mother(Abel, mum(Abel))" 2
    (Fact_set.cardinal ch1);
  let mum_abel =
    match
      List.find_opt
        (fun a -> Symbol.equal (Atom.rel a) Theories.Zoo.mother)
        (Fact_set.atoms ch1)
    with
    | Some a ->
        Alcotest.(check bool) "first arg Abel" true
          (Term.equal (Atom.arg a 0) abel);
        Atom.arg a 1
    | None -> Alcotest.fail "no Mother atom at stage 1"
  in
  Alcotest.(check bool) "mum(Abel) is skolem" true
    (Term.is_functional mum_abel);
  (* Stage 2 proclaims mum(Abel) human and gives her a mother; stage 3
     continues the chain. *)
  let ch2 = Chase.Engine.stage run 2 in
  Alcotest.(check bool) "Human(mum(Abel))" true
    (Fact_set.mem (atom Theories.Zoo.human [ mum_abel ]) ch2);
  Alcotest.(check bool) "chase does not saturate" false
    (Chase.Engine.saturated run)

let test_example1_entailment () =
  (* T_a, {Human(Abel)} |= exists y z. Mother(Abel,y), Mother(y,z). *)
  let y = v "y" and z = v "z" and abel = v "abel_v" in
  let q =
    Cq.make ~free:[ abel ]
      [
        atom Theories.Zoo.mother [ abel; y ]; atom Theories.Zoo.mother [ y; z ];
      ]
  in
  match
    Chase.Entailment.entails ~max_depth:5 Theories.Zoo.t_a
      Theories.Instances.human_abel q [ c "Abel" ]
  with
  | Chase.Entailment.Entailed n ->
      Alcotest.(check bool) "needs at least two steps" true (n >= 2)
  | _ -> Alcotest.fail "expected entailment"

(* ------------------------------------------------------------------ *)
(* Observation 8: Ch(T, F) = Ch(T, D) literally for D ⊆ F ⊆ Ch(T,D)    *)
(* ------------------------------------------------------------------ *)

let test_observation8 () =
  let d = Theories.Instances.human_abel in
  let run1 = Chase.Engine.run ~max_depth:6 Theories.Zoo.t_a d in
  let f = Chase.Engine.stage run1 2 in
  let run2 = Chase.Engine.run ~max_depth:6 Theories.Zoo.t_a f in
  (* Every stage of the restart is inside the original chase, and vice
     versa within the computed prefixes. *)
  Alcotest.(check bool) "restart stage 2 inside original prefix" true
    (Fact_set.subset (Chase.Engine.stage run2 2) (Chase.Engine.result run1));
  Alcotest.(check bool) "original stage 4 inside restart prefix" true
    (Fact_set.subset (Chase.Engine.stage run1 4) (Chase.Engine.result run2))

let test_observation8_td () =
  (* The same literal-equality check for the multi-head T_d. *)
  let _, _, d = Theories.Instances.path Theories.Zoo.g2 2 in
  let run1 = Chase.Engine.run ~max_depth:4 Theories.Zoo.t_d d in
  let f = Chase.Engine.stage run1 1 in
  let run2 = Chase.Engine.run ~max_depth:3 Theories.Zoo.t_d f in
  Alcotest.(check bool) "restarted chase stays inside original" true
    (Fact_set.subset (Chase.Engine.stage run2 2) (Chase.Engine.result run1))

(* ------------------------------------------------------------------ *)
(* Provenance: birth atoms (Observation 10)                            *)
(* ------------------------------------------------------------------ *)

let test_birth_atoms () =
  let d = Theories.Instances.human_abel in
  let run = Chase.Engine.run ~max_depth:3 Theories.Zoo.t_a d in
  let invented = Chase.Engine.invented_terms run in
  Alcotest.(check bool) "invented terms exist" true
    (not (Term.Set.is_empty invented));
  Term.Set.iter
    (fun t ->
      match Chase.Engine.birth_atom run t with
      | Some a ->
          Alcotest.(check bool) "birth atom contains term" true
            (List.exists (Term.equal t) (Atom.args a))
      | None -> Alcotest.fail "invented term without birth atom")
    invented;
  Alcotest.(check (option string)) "initial constants have no birth atom"
    None
    (Option.map (fun _ -> "atom") (Chase.Engine.birth_atom run (c "Abel")))

let test_derivation_frontier () =
  let d = Theories.Instances.human_abel in
  let run = Chase.Engine.run ~max_depth:3 Theories.Zoo.t_a d in
  let derived =
    List.filter
      (fun a -> not (Fact_set.mem a d))
      (Fact_set.atoms (Chase.Engine.result run))
  in
  List.iter
    (fun a ->
      match Chase.Engine.atom_frontier run a with
      | Some fr ->
          Alcotest.(check bool) "frontier inside atom terms" true
            (Term.Set.for_all
               (fun t -> List.exists (Term.equal t) (Atom.args a))
               fr)
      | None -> Alcotest.fail "derived atom without frontier")
    derived

(* ------------------------------------------------------------------ *)
(* T_d chase structure: Observation 49                                 *)
(* ------------------------------------------------------------------ *)

let test_observation49 () =
  let _, _, d = Theories.Instances.path Theories.Zoo.g2 3 in
  let run = Chase.Engine.run ~max_depth:4 ~max_atoms:50_000 Theories.Zoo.t_d d in
  let ch = Chase.Engine.result run in
  let dom_d = Fact_set.domain d in
  let edges =
    List.filter
      (fun a ->
        Symbol.equal (Atom.rel a) Theories.Zoo.r2
        || Symbol.equal (Atom.rel a) Theories.Zoo.g2)
      (Fact_set.atoms ch)
  in
  (* (i) an edge into dom(D) must come from dom(D). *)
  List.iter
    (fun a ->
      let src = Atom.arg a 0 and dst = Atom.arg a 1 in
      if Term.Set.mem dst dom_d then
        Alcotest.(check bool)
          (Fmt.str "edge into D from D: %a" Atom.pp a)
          true
          (Term.Set.mem src dom_d))
    edges;
  (* (iii) two same-colour edges into one vertex: if one source is in
     dom(D), both are.  Equivalently: invented terms have in-degree at most
     one per colour. *)
  let in_count = Hashtbl.create 64 in
  List.iter
    (fun a ->
      let dst = Atom.arg a 1 in
      if not (Term.Set.mem dst dom_d) then begin
        let key = (Symbol.name (Atom.rel a), Term.hash dst) in
        let sources =
          Option.value ~default:Term.Set.empty (Hashtbl.find_opt in_count key)
        in
        Hashtbl.replace in_count key (Term.Set.add (Atom.arg a 0) sources)
      end)
    edges;
  Hashtbl.iter
    (fun _ sources ->
      Alcotest.(check bool) "invented in-degree <= 1 per colour" true
        (Term.Set.cardinal sources <= 1))
    in_count

let test_rule_counts () =
  let d = Theories.Instances.human_abel in
  let run = Chase.Engine.run ~max_depth:4 Theories.Zoo.t_a d in
  let counts = Chase.Engine.rule_counts run in
  Alcotest.(check int) "two rules fired" 2 (List.length counts);
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 counts in
  Alcotest.(check int) "every derived atom accounted for" 
    (Fact_set.cardinal (Chase.Engine.result run) - 1)
    total

(* ------------------------------------------------------------------ *)
(* Enough and needed depth                                             *)
(* ------------------------------------------------------------------ *)

let test_needed_depth () =
  let d = Theories.Instances.single_edge Theories.Zoo.e2 in
  let run = Chase.Engine.run ~max_depth:6 Theories.Zoo.t_p d in
  let _, _, path3 = Theories.Zoo.e_path_query 3 in
  let q = Cq.make ~free:[] (Cq.atoms path3) in
  (match Chase.Entailment.entails_run run q [] with
  | Chase.Entailment.Entailed n -> Alcotest.(check int) "depth 2" 2 n
  | _ -> Alcotest.fail "path of 3 should appear");
  Alcotest.(check bool) "enough 2" true (Chase.Entailment.enough run 2 q);
  Alcotest.(check bool) "not enough 1" false (Chase.Entailment.enough run 1 q)

(* ------------------------------------------------------------------ *)
(* Cores and termination                                               *)
(* ------------------------------------------------------------------ *)

let test_core_of_structure () =
  (* A path folds onto an edge plus a loop?  No: a pure path has itself as
     core.  A structure with a redundant pendant does fold. *)
  let redundant =
    Fact_set.of_list
      [
        atom Theories.Zoo.e2 [ c "a"; c "b" ];
        atom Theories.Zoo.e2 [ c "a"; c "b'" ];
        atom Theories.Zoo.e2 [ c "b"; c "b" ];
      ]
  in
  (* With nothing frozen everything folds onto the self-loop. *)
  let core = Chase.Core_model.core_of redundant in
  Alcotest.(check int) "folds onto the loop" 1 (Fact_set.cardinal core);
  (* Freezing a keeps the edge but still folds b' onto b. *)
  let keep_a = Term.Set.of_list [ c "a" ] in
  Alcotest.(check int) "a frozen: b' folds onto b" 2
    (Fact_set.cardinal (Chase.Core_model.core_of ~keep:keep_a redundant));
  (* With everything frozen, no folding is allowed. *)
  let keep = Term.Set.of_list [ c "a"; c "b"; c "b'" ] in
  Alcotest.(check int) "frozen keeps all" 3
    (Fact_set.cardinal (Chase.Core_model.core_of ~keep redundant))

let test_exercise23_core_terminates () =
  let d = Theories.Instances.single_edge Theories.Zoo.e2 in
  match Chase.Termination.core_terminates_on ~max_c:6 ~lookahead:4
          Theories.Zoo.t_loopcut d
  with
  | Chase.Termination.Holds cn ->
      Alcotest.(check bool) "small c" true (cn <= 3)
  | _ -> Alcotest.fail "T_loopcut should core-terminate on an edge"

let test_exercise23_not_all_instances () =
  let d = Theories.Instances.single_edge Theories.Zoo.e2 in
  match
    Chase.Termination.all_instances_terminates_on ~max_depth:8
      Theories.Zoo.t_loopcut d
  with
  | Chase.Termination.Budget_exhausted -> ()
  | Chase.Termination.Holds n ->
      Alcotest.failf "chase should not saturate, saturated at %d" n
  | Chase.Termination.Fails -> Alcotest.fail "unexpected verdict"

let test_exercise22_tp_not_core_terminating () =
  let d = Theories.Instances.single_edge Theories.Zoo.e2 in
  match
    Chase.Termination.core_terminates_on ~max_c:5 ~lookahead:4
      Theories.Zoo.t_p d
  with
  | Chase.Termination.Budget_exhausted -> ()
  | Chase.Termination.Holds n ->
      Alcotest.failf "T_p must not core-terminate, got c = %d" n
  | Chase.Termination.Fails -> Alcotest.fail "unexpected verdict"

let test_core_model_is_model () =
  let d = Theories.Instances.single_edge Theories.Zoo.e2 in
  match Chase.Core_model.core_of_chase ~max_c:6 ~lookahead:4
          Theories.Zoo.t_loopcut d
  with
  | Some { Chase.Core_model.model; core; _ } ->
      Alcotest.(check bool) "model satisfies theory" true
        (Theory.satisfied_in Theories.Zoo.t_loopcut model);
      Alcotest.(check bool) "core satisfies theory" true
        (Theory.satisfied_in Theories.Zoo.t_loopcut core);
      Alcotest.(check bool) "core contains D" true (Fact_set.subset d core);
      (* Exercise 25: Core(Core(D)) = Core(D): the core is its own core. *)
      let keep = Fact_set.domain d in
      Alcotest.(check bool) "core idempotent" true
        (Fact_set.equal (Chase.Core_model.core_of ~keep core) core)
  | None -> Alcotest.fail "expected a core"

let test_datalog_saturates () =
  (* Transitive closure is all-instances terminating. *)
  let x = v "x" and y = v "y" and z = v "z" in
  let tc =
    Theory.make ~name:"tc"
      [
        Tgd.make
          ~body:[ atom Theories.Zoo.e2 [ x; y ]; atom Theories.Zoo.e2 [ y; z ] ]
          ~head:[ atom Theories.Zoo.e2 [ x; z ] ]
          ();
      ]
  in
  let _, _, d = Theories.Instances.path Theories.Zoo.e2 5 in
  let run = Chase.Engine.run ~max_depth:10 tc d in
  Alcotest.(check bool) "saturated" true (Chase.Engine.saturated run);
  Alcotest.(check int) "all pairs" 15
    (Fact_set.cardinal (Chase.Engine.result run))

let test_uniform_bound_family () =
  let instances =
    List.map
      (fun n ->
        let _, _, d = Theories.Instances.path Theories.Zoo.e2 n in
        d)
      [ 1; 2; 3; 4 ]
  in
  let bound, per_instance =
    Chase.Termination.uniform_bound_on ~max_c:6 ~lookahead:4
      Theories.Zoo.t_loopcut instances
  in
  Alcotest.(check int) "all instances solved" 4 (List.length per_instance);
  match bound with
  | Some b -> Alcotest.(check bool) "uniformly small" true (b <= 3)
  | None -> Alcotest.fail "expected uniform bound"

(* Pinned retract search. [core_of_chase] steers its fold search with a
   candidate ranking ([Homomorphism]'s [?prefer]); which fold is found
   first decides the model it reports. The values below were recorded
   before the ranking moved from the map-and-set backtracking engine
   onto the register machine, and must not move. The model is pinned by
   the digest of its sorted printed atoms. *)
let model_digest fs =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.sort compare (List.map (Fmt.str "%a" Atom.pp) (Fact_set.atoms fs)))))

let random_small seed t =
  Theories.Generators.random_instance_for ~seed t ~nodes:3 ~facts:4

let e_path n =
  let _, _, d = Theories.Instances.path Theories.Zoo.e2 n in
  d

let person_court n =
  Fact_set.of_list
    (List.init n (fun i ->
         atom Theories.Zoo.person [ c (Printf.sprintf "p%d" i) ]))

let test_core_of_chase_pins () =
  let open Theories.Zoo in
  List.iter
    (fun (name, theory, d, expected) ->
      let got =
        Option.map
          (fun { Chase.Core_model.c; model; core } ->
            ( c,
              Fact_set.cardinal model,
              Fact_set.cardinal core,
              model_digest model ))
          (Chase.Core_model.core_of_chase ~max_c:6 ~lookahead:4
             ~max_atoms:20_000 theory d)
      in
      Alcotest.(check (option (pair int (pair int (pair int string)))))
        name
        (Option.map (fun (a, b, c, d) -> (a, (b, (c, d)))) expected)
        (Option.map (fun (a, b, c, d) -> (a, (b, (c, d)))) got))
    [
      ( "T_loopcut r11", t_loopcut, random_small 11 t_loopcut,
        Some (2, 5, 5, "c915db5b050d2d19d746503712575186") );
      ( "T_loopcut r23", t_loopcut, random_small 23 t_loopcut,
        Some (2, 4, 4, "a701f8470a905825d39bbeb85ab64bd3") );
      ( "T_loopcut E^3", t_loopcut, e_path 3,
        Some (2, 6, 6, "f77384f7315cefdb461add3df3108c90") );
      ( "T_c E^3", t_c, e_path 3,
        Some (3, 6, 6, "9ac2b3c2fe5b49f23de56cb4936baac7") );
      ( "T_spouse r23", t_spouse, random_small 23 t_spouse,
        Some (1, 8, 8, "3116509e2b5ce75bc45900f3cefd2d19") );
      ( "T_spouse court 2", t_spouse, person_court 2,
        Some (2, 8, 8, "2a440882432255aee435a52bd53d0c1d") );
      ( "T_e28[3] r11", t_e28 3, random_small 11 (t_e28 3),
        Some (3, 11, 11, "9ad0c0435643e680cc8a6911085216fd") );
      ( "T_e28[3] r23", t_e28 3, random_small 23 (t_e28 3),
        Some (3, 8, 8, "19c06cd268b6ff477c1d80fdb5f33619") );
      ( "T_sticky r11", t_sticky, random_small 11 t_sticky,
        Some (0, 4, 4, "b0bb6b4a68d33990ac51b8abbf73f82b") );
      ("T_p E^3", t_p, e_path 3, None);
    ]

let test_uniform_bound_pins () =
  let open Theories.Zoo in
  List.iter
    (fun (name, theory, instances, expected_bound, expected_per) ->
      let bound, per =
        Chase.Termination.uniform_bound_on ~max_c:6 ~lookahead:4
          ~max_atoms:20_000 theory instances
      in
      Alcotest.(check (option int)) (name ^ " bound") expected_bound bound;
      Alcotest.(check (list int)) (name ^ " per instance") expected_per
        (List.map snd per))
    [
      ("T_loopcut", t_loopcut, List.map e_path [ 1; 2; 3; 4 ], Some 2,
        [ 2; 2; 2; 2 ]);
      ("T_spouse", t_spouse, List.map person_court [ 1; 2; 3 ], Some 2,
        [ 2; 2; 2 ]);
      ( "T_e28[3]", t_e28 3,
        List.map (fun s -> random_small s (t_e28 3)) [ 3; 5; 7 ],
        Some 3, [ 3; 2; 3 ] );
      ( "T_a", t_a, List.map (fun s -> random_small s t_a) [ 3; 5; 7 ], None,
        [ 1; 1 ] );
      ("T_p", t_p, List.map e_path [ 1; 2 ], None, []);
    ]

(* ------------------------------------------------------------------ *)
(* Section 8: C_D and Lemma 33                                         *)
(* ------------------------------------------------------------------ *)

let test_lemma33 () =
  (* On the FES members of the zoo the union-of-cores C_D sits inside a
     uniformly shallow chase stage. *)
  List.iter
    (fun (name, theory, d) ->
      match Chase.Fusfes.lemma33_holds ~l:2 ~max_c:6 ~lookahead:4 theory d with
      | Some ok ->
          Alcotest.(check bool) (name ^ ": C_D inside Ch_kT") true ok
      | None -> Alcotest.fail (name ^ ": sub-instance core search failed"))
    [
      ("t_loopcut", Theories.Zoo.t_loopcut,
       (let _, _, d = Theories.Instances.path Theories.Zoo.e2 4 in d));
      ("t_spouse", Theories.Zoo.t_spouse,
       Fact_set.of_list
         (List.init 3 (fun i ->
              atom Theories.Zoo.person [ c (Printf.sprintf "p%d" i) ])));
    ];
  (* For non-FES T_p the construction cannot get off the ground. *)
  let d = Theories.Instances.single_edge Theories.Zoo.e2 in
  Alcotest.(check bool) "T_p: no C_D" true
    (Chase.Fusfes.c_d ~l:1 ~max_c:4 ~lookahead:3 Theories.Zoo.t_p d = None)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let gen_edges = QCheck.Gen.(list_size (1 -- 6) (pair (0 -- 3) (0 -- 3)))

let fact_set_of_edges edges =
  Fact_set.of_list
    (List.map
       (fun (i, j) ->
         atom Theories.Zoo.e2
           [ c (Printf.sprintf "x%d" i); c (Printf.sprintf "x%d" j) ])
       edges)

let prop_stages_monotone =
  QCheck.Test.make ~count:60 ~name:"chase stages are increasing"
    (QCheck.make gen_edges) (fun edges ->
      let d = fact_set_of_edges edges in
      let run = Chase.Engine.run ~max_depth:4 Theories.Zoo.t_loopcut d in
      let ok = ref true in
      for i = 0 to Chase.Engine.depth run - 1 do
        if
          not
            (Fact_set.subset (Chase.Engine.stage run i)
               (Chase.Engine.stage run (i + 1)))
        then ok := false
      done;
      !ok)

let prop_saturated_is_model =
  QCheck.Test.make ~count:60 ~name:"saturated chase satisfies the theory"
    (QCheck.make gen_edges) (fun edges ->
      let d = fact_set_of_edges edges in
      (* Datalog: guaranteed to saturate. *)
      let x = v "x" and y = v "y" and z = v "z" in
      let tc =
        Theory.make
          [
            Tgd.make
              ~body:
                [ atom Theories.Zoo.e2 [ x; y ]; atom Theories.Zoo.e2 [ y; z ] ]
              ~head:[ atom Theories.Zoo.e2 [ x; z ] ]
              ();
          ]
      in
      let run = Chase.Engine.run ~max_depth:30 tc d in
      Chase.Engine.saturated run
      && Theory.satisfied_in tc (Chase.Engine.result run))

let prop_semi_naive_equals_naive =
  (* The semi-naive engine must produce exactly Definition 6's stages: we
     recompute stage i+1 naively from stage i and compare. *)
  QCheck.Test.make ~count:40 ~name:"semi-naive equals naive stages"
    (QCheck.make gen_edges) (fun edges ->
      let d = fact_set_of_edges edges in
      let theory = Theories.Zoo.t_loopcut in
      let run = Chase.Engine.run ~max_depth:3 theory d in
      let ok = ref true in
      for i = 0 to Chase.Engine.depth run - 1 do
        let stage_i = Chase.Engine.stage run i in
        let naive_next = ref (Fact_set.to_set stage_i) in
        List.iter
          (fun rule ->
            Tgd.triggers rule stage_i (fun sigma ->
                List.iter
                  (fun a -> naive_next := Atom.Set.add a !naive_next)
                  (Tgd.apply rule sigma)))
          (Theory.rules theory);
        if
          not
            (Fact_set.equal
               (Fact_set.of_set !naive_next)
               (Chase.Engine.stage run (i + 1)))
        then ok := false
      done;
      !ok)

let () =
  Alcotest.run "chase"
    [
      ( "engine",
        [
          Alcotest.test_case "example 7 stages" `Quick test_example7_stages;
          Alcotest.test_case "example 1 entailment" `Quick
            test_example1_entailment;
          Alcotest.test_case "observation 8" `Quick test_observation8;
          Alcotest.test_case "observation 8 for T_d" `Quick
            test_observation8_td;
          Alcotest.test_case "birth atoms" `Quick test_birth_atoms;
          Alcotest.test_case "derivation frontier" `Quick
            test_derivation_frontier;
          Alcotest.test_case "observation 49" `Quick test_observation49;
          Alcotest.test_case "rule counts" `Quick test_rule_counts;
        ] );
      ( "entailment",
        [ Alcotest.test_case "needed depth" `Quick test_needed_depth ] );
      ( "cores",
        [
          Alcotest.test_case "core of structure" `Quick test_core_of_structure;
          Alcotest.test_case "exercise 23: core terminates" `Quick
            test_exercise23_core_terminates;
          Alcotest.test_case "exercise 23: not all-instances" `Quick
            test_exercise23_not_all_instances;
          Alcotest.test_case "exercise 22: T_p does not core-terminate" `Quick
            test_exercise22_tp_not_core_terminating;
          Alcotest.test_case "core model is a model" `Quick
            test_core_model_is_model;
          Alcotest.test_case "datalog saturates" `Quick test_datalog_saturates;
          Alcotest.test_case "uniform bound on family" `Quick
            test_uniform_bound_family;
          Alcotest.test_case "lemma 33 (C_D)" `Quick test_lemma33;
          Alcotest.test_case "core_of_chase pins" `Quick
            test_core_of_chase_pins;
          Alcotest.test_case "uniform_bound_on pins" `Quick
            test_uniform_bound_pins;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_stages_monotone;
          QCheck_alcotest.to_alcotest prop_saturated_is_model;
          QCheck_alcotest.to_alcotest prop_semi_naive_equals_naive;
        ] );
    ]
