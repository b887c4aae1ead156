(* The executable-plan evaluation layer: plan compilation, leapfrog
   answers against the Cq reference (and the Cq/Ucq point checks against
   the plans' answers), UCQ union dedup, functional arguments with a
   variable inside as rigid keys, guard integration (a tripped join returns
   a sound partial answer set), and containment staying off the plan
   layer. *)

open Logic

let tuples = Alcotest.testable
    (Fmt.list ~sep:Fmt.semi (Fmt.list ~sep:Fmt.comma Term.pp))
    (fun a b -> List.compare (List.compare Term.compare) a b = 0)

let mem_tuple tuple ts =
  List.exists (fun t -> List.compare Term.compare t tuple = 0) ts

let x = Term.var "x"
let y = Term.var "y"
let z = Term.var "z"

let test_plan_compiles () =
  let q =
    Cq.make ~free:[ x; y ]
      [ Atom.make Theories.Zoo.e2 [ x; z ]; Atom.make Theories.Zoo.e2 [ z; y ] ]
  in
  let p = Eval.Plan.compile q in
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
  let all = Eval.answers q er in
  (* Every pair of domain elements: [Cq.holds] accepts exactly the plan's
     answers. *)
  let dom = Term.Set.elements (Fact_set.domain er) in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let tuple = [ a; b ] in
          Alcotest.(check bool) "holds iff a plan answer"
            (mem_tuple tuple all)
            (Cq.holds q er tuple))
        dom)
    dom;
  let b = Cq.make ~free:[] [ Atom.make Theories.Zoo.e2 [ x; x ] ] in
  Alcotest.(check bool) "boolean agrees" (Cq.boolean_holds b er)
    (Eval.boolean_holds b er);
  Alcotest.(check bool) "boolean = non-empty plan answers"
    (Eval.answers b er <> []) (Eval.boolean_holds b er);
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Cq.holds: answer tuple arity mismatch") (fun () ->
      ignore (Cq.holds q er [ Term.const "v0" ]))

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
  let answers = Eval.ucq_answers u er in
  Alcotest.check tuples "union answers" reference answers;
  Alcotest.(check bool) "ucq boolean" true (Eval.ucq_boolean_holds u er);
  (* Ucq.holds accepts exactly the domain elements the union answers. *)
  List.iter
    (fun v ->
      Alcotest.(check bool) "ucq holds iff a plan answer"
        (mem_tuple [ v ] answers)
        (Ucq.holds u er [ v ]))
    (Term.Set.elements (Fact_set.domain er))

(* A functional argument with a variable inside is a rigid key of the
   sorted join, like a constant: terms match atomically, so [f(y)]
   matches only itself (as in a query body used as a containment
   target), and the query still runs one leapfrog plan. *)
let a = Term.const "a"
let b = Term.const "b"
let c = Term.const "c"
let f t = Term.app "f" [ t ]

let fallback_query, fallback_inst =
  let e2 = Theories.Zoo.e2 in
  ( Cq.make ~free:[ x ] [ Atom.make e2 [ x; f y ] ],
    Fact_set.of_list
      [
        Atom.make e2 [ a; f y ]; Atom.make e2 [ b; f b ]; Atom.make e2 [ c; f y ];
      ] )

let test_fallback_plan () =
  let e2 = Theories.Zoo.e2 in
  let q = fallback_query and inst = fallback_inst in
  let plans () = (Eval.counters ()).Eval.plans in
  let before = plans () in
  let answers = Eval.answers q inst in
  Alcotest.(check int) "one plan per evaluation" (before + 1) (plans ());
  Alcotest.check tuples "fallback answers"
    (List.sort (List.compare Term.compare) [ [ a ]; [ c ] ])
    answers;
  Alcotest.check tuples "matches Cq" (Cq.answers q inst) answers;
  Alcotest.(check bool) "holds on a fallback answer" true
    (mem_tuple [ c ] answers && Cq.holds q inst [ c ]);
  Alcotest.(check bool) "rejects a non-answer" false
    (mem_tuple [ b ] answers || Cq.holds q inst [ b ]);
  let before = plans () in
  Alcotest.(check bool) "fallback boolean" true
    (Eval.boolean_holds (Cq.make ~free:[] [ Atom.make e2 [ z; f y ] ]) inst);
  Alcotest.(check int) "one plan per boolean check" (before + 1) (plans ())

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

(* A functional-argument query draws one fuel unit per distinct tuple
   too: the query of [test_fallback_plan] has two answers, so one unit
   trips. *)
let test_fallback_spends_fuel () =
  let q = fallback_query and inst = fallback_inst in
  let full = Eval.answers q inst in
  Alcotest.(check int) "two answers" 2 (List.length full);
  match Eval.answers_outcome ~guard:(Guard.create ~fuel:1 ()) q inst with
  | Guard.Complete _ -> Alcotest.fail "expected a fuel trip"
  | Guard.Exhausted { partial; cause; _ } ->
      Alcotest.(check bool) "fuel cause" true (cause = Guard.Fuel);
      Alcotest.(check int) "one tuple per fuel unit" 1 (List.length partial);
      List.iter
        (fun tuple ->
          Alcotest.(check bool) "partial tuple is a real answer" true
            (mem_tuple tuple full))
        partial

(* A compiled plan stops at the fuel trip: fuel k keeps exactly k
   tuples, each a real answer. A UCQ draws one unit per tuple new to its
   evaluation's table, so two overlapping disjuncts complete on exactly
   as many units as they have distinct answers. *)
let test_fuel_stops_at_trip () =
  let e = Theories.Zoo.e2 in
  let er = Theories.Instances.erdos_renyi e ~seed:17 ~nodes:60 ~edges:900 in
  let path = Cq.make ~free:[ x; y ] [ Atom.make e [ x; z ]; Atom.make e [ z; y ] ] in
  let full = Eval.answers path er in
  List.iter
    (fun k ->
      match Eval.answers_outcome ~guard:(Guard.create ~fuel:k ()) path er with
      | Guard.Complete _ -> Alcotest.fail "expected a fuel trip"
      | Guard.Exhausted { partial; cause; _ } ->
          Alcotest.(check bool) "fuel cause" true (cause = Guard.Fuel);
          Alcotest.(check int) "one tuple per fuel unit" k (List.length partial);
          List.iter
            (fun tuple ->
              Alcotest.(check bool) "partial tuple is a real answer" true
                (mem_tuple tuple full))
            partial)
    [ 1; 25 ];
  let edge = Cq.make ~free:[ x; y ] [ Atom.make e [ x; y ] ] in
  let u = Ucq.of_disjuncts_unchecked [ path; edge ] in
  let all = Eval.ucq_answers u er in
  let n = List.length all in
  Alcotest.(check bool) "the disjuncts overlap" true
    (n < List.length full + List.length (Eval.answers edge er));
  (match Eval.ucq_answers_outcome ~guard:(Guard.create ~fuel:n ()) u er with
  | Guard.Complete ts -> Alcotest.check tuples "complete on n units" all ts
  | Guard.Exhausted _ -> Alcotest.fail "n units must suffice");
  match Eval.ucq_answers_outcome ~guard:(Guard.create ~fuel:(n - 1) ()) u er with
  | Guard.Complete _ -> Alcotest.fail "n - 1 units must trip"
  | Guard.Exhausted { partial; _ } ->
      Alcotest.(check int) "n - 1 tuples" (n - 1) (List.length partial)

(* Containment is the register machine's job: a check against a
   128-atom target (an E-path, or a width-8 E/R grid prefix) decides
   the right verdict without compiling a single plan. *)
let test_containment_runs_no_plan () =
  let e = Theories.Zoo.e2 and r = Theories.Zoo.r2 in
  let v i = Term.var (Printf.sprintf "c%d" i) in
  let path n =
    Cq.make ~free:[] (List.init n (fun i -> Atom.make e [ v i; v (i + 1) ]))
  in
  let grid n =
    (* cell k/2, rightward edge on even k, downward on odd k *)
    Cq.make ~free:[]
      (List.init n (fun k ->
           let c = k / 2 in
           if k mod 2 = 0 then Atom.make e [ v c; v (c + 1) ]
           else Atom.make r [ v c; v (c + 8) ]))
  in
  let p i = Term.var (Printf.sprintf "p%d" i) in
  let triangle =
    Cq.make ~free:[]
      [ Atom.make e [ p 0; p 1 ]; Atom.make e [ p 1; p 2 ];
        Atom.make e [ p 2; p 0 ] ]
  in
  List.iter
    (fun body ->
      let copy = fst (Cq.refresh ~prefix:"k" body) in
      Alcotest.(check int) "128-atom target" 128
        (Fact_set.cardinal (Cq.as_fact_set copy));
      let before = (Eval.counters ()).Eval.plans in
      Alcotest.(check bool) "embeds into its copy" true
        (Containment.implies copy body);
      Alcotest.(check bool) "no triangle" false
        (Containment.implies copy triangle);
      Alcotest.(check int) "no plan compiled" before
        (Eval.counters ()).Eval.plans)
    [ path 128; grid 128 ]

let test_counters_move () =
  let c0 = Eval.counters () in
  let er = Theories.Instances.erdos_renyi Theories.Zoo.e2 ~seed:19 ~nodes:30
      ~edges:250 in
  let q =
    Cq.make ~free:[ x ]
      [ Atom.make Theories.Zoo.e2 [ x; y ]; Atom.make Theories.Zoo.e2 [ y; x ] ]
  in
  let answers = Eval.answers q er in
  let c = Eval.counters () in
  Alcotest.(check bool) "a plan ran" true (c.Eval.plans - c0.Eval.plans >= 1);
  Alcotest.(check bool) "seeks counted" true (c.Eval.seeks > c0.Eval.seeks);
  Alcotest.(check int) "emitted = distinct answers" (List.length answers)
    (c.Eval.emitted - c0.Eval.emitted)

(* The counters are shared by every domain: two domains evaluating the
   same query k times each add exactly 2k runs' worth of seeks. Many
   short runs make lost updates likely if the counters are not added
   atomically. The second instance is fresh, so both domains also race
   to build its views. *)
let test_counters_concurrent () =
  let inst () =
    Theories.Instances.erdos_renyi Theories.Zoo.e2 ~seed:23 ~nodes:8
      ~edges:16
  in
  let q =
    Cq.make ~free:[ x ]
      [ Atom.make Theories.Zoo.e2 [ x; y ]; Atom.make Theories.Zoo.e2 [ y; z ];
        Atom.make Theories.Zoo.e2 [ z; x ] ]
  in
  let seeks () = (Eval.counters ()).Eval.seeks in
  let s0 = seeks () in
  let expected = Eval.answers q (inst ()) in
  let one = seeks () - s0 in
  Alcotest.(check bool) "a run seeks" true (one > 0);
  let shared = inst () in
  let k = 10_000 in
  let s1 = seeks () in
  let run () = List.init k (fun _ -> Eval.answers q shared) in
  let d1 = Domain.spawn run and d2 = Domain.spawn run in
  let results = Domain.join d1 @ Domain.join d2 in
  Alcotest.(check int) "no lost seeks" (2 * k * one) (seeks () - s1);
  List.iter (Alcotest.check tuples "same answers" expected) results

let views () = (Fact_set.counters ()).Fact_set.views

(* Six instances, more than the old four-entry view cache held, queried
   round-robin: the second round sorts nothing. *)
let test_views_once_per_instance () =
  let e = Theories.Zoo.e2 in
  let insts =
    List.init 6 (fun i ->
        Theories.Instances.erdos_renyi e ~seed:(31 + i) ~nodes:60 ~edges:500)
  in
  let u =
    Ucq.of_disjuncts_unchecked
      [
        Cq.make ~free:[ x ] [ Atom.make e [ x; y ]; Atom.make e [ y; x ] ];
        Cq.make ~free:[ x ]
          [ Atom.make e [ x; y ]; Atom.make e [ y; z ]; Atom.make e [ z; x ] ];
      ]
  in
  let round () = List.map (Eval.ucq_answers u) insts in
  let v0 = views () in
  let first = round () in
  Alcotest.(check bool) "round one builds views" true (views () > v0);
  let v1 = views () in
  let second = round () in
  Alcotest.(check int) "round two builds no view" v1 (views ());
  List.iter2 (Alcotest.check tuples "same answers") first second;
  List.iter2
    (fun inst got ->
      let reference =
        List.sort_uniq (List.compare Term.compare)
          (List.concat_map (fun d -> Cq.answers d inst) (Ucq.disjuncts u))
      in
      Alcotest.check tuples "= Cq.answers" reference got)
    insts first

(* A set derived from an evaluated one starts without views: each
   derived set answers like [Cq.answers] on its own facts. *)
let test_derived_views () =
  let e = Theories.Zoo.e2 in
  let f = Theories.Instances.erdos_renyi e ~seed:41 ~nodes:30 ~edges:120 in
  let q =
    Cq.make ~free:[ x; y ] [ Atom.make e [ x; z ]; Atom.make e [ z; y ] ]
  in
  let before = Eval.answers q f in
  Alcotest.check tuples "base" (Cq.answers q f) before;
  let fresh = Atom.make e [ Term.const "new0"; Term.const "new1" ] in
  let edge = List.hd (Fact_set.atoms f) in
  let added = Fact_set.add fresh (Fact_set.add
      (Atom.make e [ Atom.arg edge 1; Term.const "new0" ]) f) in
  let removed = Fact_set.diff f (Fact_set.of_list [ edge ]) in
  List.iter
    (fun (name, g) ->
      let got = Eval.answers q g in
      Alcotest.check tuples name (Cq.answers q g) got;
      Alcotest.(check bool) (name ^ " differs from the base") false
        (List.equal (List.equal Term.equal) got before))
    [ ("add", added); ("diff", removed) ];
  Alcotest.check tuples "base unchanged" before (Eval.answers q f);
  (* Unary and nullary relations (width-1 rows) through a derived set. *)
  let p1 = Symbol.make "P" ~arity:1 and z0 = Symbol.make "Z" ~arity:0 in
  let qz = Cq.make ~free:[ x ] [ Atom.make p1 [ x ]; Atom.make z0 [] ] in
  let pz = Fact_set.of_list [ Atom.make p1 [ a ]; Atom.make z0 [] ] in
  Alcotest.check tuples "nullary present" [ [ a ] ] (Eval.answers qz pz);
  let pz' = Fact_set.add (Atom.make p1 [ b ]) pz in
  Alcotest.check tuples "unary added" [ [ a ]; [ b ] ] (Eval.answers qz pz');
  Alcotest.check tuples "nullary removed" []
    (Eval.answers qz (Fact_set.diff pz' (Fact_set.of_list [ Atom.make z0 [] ])))

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
          Alcotest.test_case "fallback plans spend fuel" `Quick
            test_fallback_spends_fuel;
          Alcotest.test_case "fuel stops compiled plans at the trip" `Quick
            test_fuel_stops_at_trip;
        ] );
      ( "integration",
        [
          Alcotest.test_case "containment runs no plan" `Quick
            test_containment_runs_no_plan;
          Alcotest.test_case "counters" `Quick test_counters_move;
          Alcotest.test_case "counters from two domains" `Quick
            test_counters_concurrent;
        ] );
      ( "views",
        [
          Alcotest.test_case "views are built once per instance" `Quick
            test_views_once_per_instance;
          Alcotest.test_case "derived sets get their own views" `Quick
            test_derived_views;
        ] );
    ]
