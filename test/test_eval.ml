(* The executable-plan evaluation layer: plan compilation, leapfrog
   answers against the Cq reference, UCQ union dedup, the fallback for
   bodies the leapfrog compiler declines, the containment probe, guard
   integration (a tripped join returns a sound partial answer set), and
   the Match trigger rounds. *)

open Logic

let tuples = Alcotest.testable
    (Fmt.list ~sep:Fmt.semi (Fmt.list ~sep:Fmt.comma Term.pp))
    (fun a b -> List.compare (List.compare Term.compare) a b = 0)

let x = Term.var "x"
let y = Term.var "y"
let z = Term.var "z"

let test_plan_compiles () =
  let q =
    Cq.make ~free:[ x; y ]
      [ Atom.make Theories.Zoo.e2 [ x; z ]; Atom.make Theories.Zoo.e2 [ z; y ] ]
  in
  let p = Eval.Plan.compile q in
  Alcotest.(check bool) "compiled" true (Eval.Plan.compiled p);
  Alcotest.(check int) "order covers all vars" 3
    (List.length (Eval.Plan.order p));
  (* The order is connectivity-greedy: the shared variable z leads. *)
  (match Eval.Plan.order p with
  | first :: _ -> Alcotest.(check bool) "z first" true (Term.equal first z)
  | [] -> Alcotest.fail "empty order");
  Alcotest.(check bool) "pp smoke" true
    (String.length (Fmt.str "%a" Eval.Plan.pp p) > 0)

let test_answers_match_reference () =
  let grid = Theories.Instances.grid Theories.Zoo.r2 Theories.Zoo.g2
      ~width:9 ~height:7 in
  List.iter
    (fun (_, _, q) ->
      Alcotest.check tuples "grid answers" (Cq.answers q grid)
        (Eval.answers q grid))
    [
      Theories.Zoo.r_path_query 1;
      Theories.Zoo.r_path_query 3;
      Theories.Zoo.g_path_query 2;
    ];
  let er = Theories.Instances.erdos_renyi Theories.Zoo.e2 ~seed:3 ~nodes:40
      ~edges:300 in
  let tri =
    Cq.make ~free:[ x; y ]
      [
        Atom.make Theories.Zoo.e2 [ x; y ];
        Atom.make Theories.Zoo.e2 [ y; z ];
        Atom.make Theories.Zoo.e2 [ x; z ];
      ]
  in
  Alcotest.check tuples "triangles" (Cq.answers tri er) (Eval.answers tri er);
  (* Disconnected body: a cross product of components. *)
  let cross =
    Cq.make ~free:[ x; y ]
      [ Atom.make Theories.Zoo.r2 [ x; x ]; Atom.make Theories.Zoo.g2 [ y; y ] ]
  in
  let inst =
    Fact_set.of_list
      [
        Atom.make Theories.Zoo.r2 [ Term.const "a"; Term.const "a" ];
        Atom.make Theories.Zoo.r2 [ Term.const "b"; Term.const "b" ];
        Atom.make Theories.Zoo.g2 [ Term.const "c"; Term.const "c" ];
      ]
  in
  Alcotest.check tuples "cross product" (Cq.answers cross inst)
    (Eval.answers cross inst)

let test_holds_and_boolean () =
  let er = Theories.Instances.erdos_renyi Theories.Zoo.e2 ~seed:5 ~nodes:25
      ~edges:120 in
  let q =
    Cq.make ~free:[ x; y ]
      [ Atom.make Theories.Zoo.e2 [ x; z ]; Atom.make Theories.Zoo.e2 [ z; y ] ]
  in
  let all = Cq.answers q er in
  List.iter
    (fun tuple ->
      Alcotest.(check bool) "holds on answer" true (Eval.holds q er tuple))
    all;
  Alcotest.(check bool) "holds rejects non-answer"
    (Cq.holds q er [ Term.const "v0"; Term.const "v0" ])
    (Eval.holds q er [ Term.const "v0"; Term.const "v0" ]);
  let b = Cq.make ~free:[] [ Atom.make Theories.Zoo.e2 [ x; x ] ] in
  Alcotest.(check bool) "boolean agrees" (Cq.boolean_holds b er)
    (Eval.boolean_holds b er);
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Eval.holds: answer tuple arity mismatch") (fun () ->
      ignore (Eval.holds q er [ Term.const "v0" ]))

let test_ucq_union_dedup () =
  let er = Theories.Instances.erdos_renyi Theories.Zoo.e2 ~seed:11 ~nodes:30
      ~edges:200 in
  (* Overlapping disjuncts: q1's answers are a superset of q2's. *)
  let q1 = Cq.make ~free:[ x ] [ Atom.make Theories.Zoo.e2 [ x; y ] ] in
  let q2 =
    Cq.make ~free:[ x ]
      [ Atom.make Theories.Zoo.e2 [ x; y ]; Atom.make Theories.Zoo.e2 [ y; z ] ]
  in
  let u = Ucq.of_disjuncts_unchecked [ q1; q2 ] in
  let reference =
    List.sort_uniq
      (List.compare Term.compare)
      (Cq.answers q1 er @ Cq.answers q2 er)
  in
  Alcotest.check tuples "union answers" reference (Eval.ucq_answers u er);
  Alcotest.(check bool) "ucq boolean" true (Eval.ucq_boolean_holds u er);
  List.iter
    (fun tuple ->
      Alcotest.(check bool) "ucq holds" true (Eval.ucq_holds u er tuple))
    reference

let test_fallback_plan () =
  (* A functional argument with a variable inside cannot be keyed by the
     sorted join, so the plan falls back to the register-machine search.
     Terms match atomically: [f(y)] matches only itself (as in a query
     body used as a containment target). *)
  let a = Term.const "a" and b = Term.const "b" and c = Term.const "c" in
  let f t = Term.app "f" [ t ] in
  let e2 = Theories.Zoo.e2 in
  let inst =
    Fact_set.of_list
      [
        Atom.make e2 [ a; f y ];
        Atom.make e2 [ b; f b ];
        Atom.make e2 [ c; f y ];
      ]
  in
  let q = Cq.make ~free:[ x ] [ Atom.make e2 [ x; f y ] ] in
  Alcotest.(check bool) "not compiled" false
    (Eval.Plan.compiled (Eval.Plan.compile q));
  Alcotest.check tuples "fallback answers"
    (List.sort (List.compare Term.compare) [ [ a ]; [ c ] ])
    (Eval.answers q inst);
  Alcotest.check tuples "matches Cq" (Cq.answers q inst) (Eval.answers q inst);
  Alcotest.(check bool) "fallback holds" true (Eval.holds q inst [ c ]);
  Alcotest.(check bool) "fallback rejects" false (Eval.holds q inst [ b ]);
  Alcotest.(check bool) "fallback boolean" true
    (Eval.boolean_holds (Cq.make ~free:[] [ Atom.make e2 [ z; f y ] ]) inst)

let test_guard_partial_is_sound () =
  let er = Theories.Instances.erdos_renyi Theories.Zoo.e2 ~seed:17 ~nodes:60
      ~edges:900 in
  let q =
    Cq.make ~free:[ x; y ]
      [ Atom.make Theories.Zoo.e2 [ x; z ]; Atom.make Theories.Zoo.e2 [ z; y ] ]
  in
  let full = Eval.answers q er in
  Alcotest.(check bool) "workload is nontrivial" true
    (List.length full > 40);
  (* One fuel unit per emitted tuple: a tiny budget must trip. *)
  let guard = Guard.create ~fuel:25 () in
  (match Eval.answers_outcome ~guard q er with
  | Guard.Complete _ -> Alcotest.fail "expected a guard trip"
  | Guard.Exhausted { partial; cause; _ } ->
      Alcotest.(check bool) "fuel cause" true (cause = Guard.Fuel);
      Alcotest.(check bool) "partial nonempty" true (partial <> []);
      Alcotest.(check bool) "partial is strict" true
        (List.length partial < List.length full);
      List.iter
        (fun tuple ->
          Alcotest.(check bool) "partial tuple is a real answer" true
            (List.exists (fun t -> List.compare Term.compare t tuple = 0) full))
        partial);
  (* A cancelled guard trips through the seek-counter poll too. *)
  let cancel = Atomic.make true in
  let guard = Guard.create ~cancel () in
  (match Eval.answers_outcome ~guard q er with
  | Guard.Complete _ -> Alcotest.fail "expected cancellation"
  | Guard.Exhausted { partial; _ } ->
      List.iter
        (fun tuple ->
          Alcotest.(check bool) "cancelled partial sound" true
            (List.exists (fun t -> List.compare Term.compare t tuple = 0) full))
        partial)

let test_containment_probe_via_hook () =
  (* Containment runs through the registered probe when eval is linked;
     below the cutoff the probe declines and the register machine
     decides, and the forced leapfrog arm must reach the same verdict. *)
  let q1 =
    Cq.make ~free:[ x ]
      [ Atom.make Theories.Zoo.e2 [ x; y ]; Atom.make Theories.Zoo.e2 [ y; z ] ]
  in
  let q2 = Cq.make ~free:[ x ] [ Atom.make Theories.Zoo.e2 [ x; y ] ] in
  let leapfrog = Eval.containment_probe ~force_leapfrog:true () in
  List.iter
    (fun (a, b, expected) ->
      Alcotest.(check bool) "implies" expected (Containment.implies a b);
      let init =
        List.fold_left2
          (fun m v w -> Term.Map.add v w m)
          Term.Map.empty (Cq.free b) (Cq.free a)
      in
      Alcotest.(check (option bool))
        "forced leapfrog" (Some expected)
        (leapfrog ~init ~flexible:(Cq.var_set b) ~pattern:(Cq.atoms b)
           ~target:(Cq.as_fact_set a)))
    [ (q1, q2, true); (q2, q1, false); (q1, q1, true) ]

let test_probe_selects_by_target_size () =
  (* The probe looks at the target before compiling: a target below
     [probe_leapfrog_min] facts runs no leapfrog plan, one at the cutoff
     runs exactly one. *)
  let path n =
    let v i = Term.var (Printf.sprintf "q%d" i) in
    Cq.make ~free:[ v 0 ]
      (List.init n (fun i -> Atom.make Theories.Zoo.e2 [ v i; v (i + 1) ]))
  in
  let plans_for target =
    Eval.reset_counters ();
    Alcotest.(check bool) "contained" true
      (Containment.implies target (path 3));
    (Eval.counters ()).Eval.plans
  in
  Alcotest.(check int) "small target: no plan" 0
    (plans_for (path (Eval.probe_leapfrog_min - 1)));
  Alcotest.(check int) "target at the cutoff: one plan" 1
    (plans_for (path Eval.probe_leapfrog_min))

let test_counters_move () =
  Eval.reset_counters ();
  let er = Theories.Instances.erdos_renyi Theories.Zoo.e2 ~seed:19 ~nodes:30
      ~edges:250 in
  let q =
    Cq.make ~free:[ x ]
      [ Atom.make Theories.Zoo.e2 [ x; y ]; Atom.make Theories.Zoo.e2 [ y; x ] ]
  in
  let answers = Eval.answers q er in
  let c = Eval.counters () in
  Alcotest.(check bool) "a plan ran" true (c.Eval.plans >= 1);
  Alcotest.(check bool) "seeks counted" true (c.Eval.seeks > 0);
  Alcotest.(check int) "emitted = distinct answers" (List.length answers)
    c.Eval.emitted

let test_match_trigger_rounds () =
  (* Eval.Match must reproduce the engine's semi-naive enumeration: the
     chase (which now routes through it) still saturates correctly. *)
  let rule =
    Tgd.make ~name:"succ"
      ~body:[ Atom.make Theories.Zoo.e2 [ x; y ] ]
      ~head:[ Atom.make Theories.Zoo.e2 [ y; z ] ]
      ()
  in
  let parts = Eval.Match.rule_parts rule ~old_is_empty:true in
  Alcotest.(check int) "one delta part per body atom" 1 (List.length parts);
  let _, _, d = Theories.Instances.path Theories.Zoo.e2 3 in
  let seen = ref 0 in
  List.iter
    (fun part ->
      Eval.Match.part_triggers rule part ~old_facts:(Fact_set.of_list [])
        ~delta:d ~full:d ~old_dom_list:[] ~new_dom_list:[] ~full_dom_list:[]
        (fun _ -> incr seen))
    parts;
  Alcotest.(check int) "one trigger per fact" 3 !seen

let () =
  Alcotest.run "eval"
    [
      ( "plans",
        [
          Alcotest.test_case "compile" `Quick test_plan_compiles;
          Alcotest.test_case "answers = reference" `Quick
            test_answers_match_reference;
          Alcotest.test_case "holds / boolean" `Quick test_holds_and_boolean;
          Alcotest.test_case "ucq union dedup" `Quick test_ucq_union_dedup;
          Alcotest.test_case "fallback plan" `Quick test_fallback_plan;
        ] );
      ( "guard",
        [
          Alcotest.test_case "partial answers are sound" `Quick
            test_guard_partial_is_sound;
        ] );
      ( "integration",
        [
          Alcotest.test_case "containment probe" `Quick
            test_containment_probe_via_hook;
          Alcotest.test_case "probe engine by target size" `Quick
            test_probe_selects_by_target_size;
          Alcotest.test_case "counters" `Quick test_counters_move;
          Alcotest.test_case "match rounds" `Quick test_match_trigger_rounds;
        ] );
    ]
