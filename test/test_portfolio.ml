(* The portfolio suite: checker units (loop-restricted rules, rewriter
   compatibility, T_d-shape detection, the BDD probe), plan/execute
   round-trips on zoo workhorses, minimizer convergence against a
   deliberately wrong oracle, .repro round-trips, and a seeded fuzz
   smoke campaign (FRONTIER_FUZZ_COUNT scales it; default 60). *)

open Logic
module Checkers = Portfolio.Checkers
module Strategy = Portfolio.Strategy
module Minimize = Portfolio.Minimize
module Repro = Portfolio.Repro
module Fuzz = Portfolio.Fuzz

let fuzz_count =
  match Sys.getenv_opt "FRONTIER_FUZZ_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 60)
  | None -> 60

let theory_of rules = Theory.make ~name:"t" rules

(* ------------------------------------------------------------------ *)
(* Loop-restricted rules                                               *)
(* ------------------------------------------------------------------ *)

let e = Theories.Zoo.e2
let x = Term.var "x"
let y = Term.var "y"
let z = Term.var "z"

let symmetric =
  Tgd.make ~name:"sym" ~body:[ Atom.make e [ x; y ] ]
    ~head:[ Atom.make e [ y; x ] ]
    ()

let transitive =
  Tgd.make ~name:"trans"
    ~body:[ Atom.make e [ x; y ]; Atom.make e [ y; z ] ]
    ~head:[ Atom.make e [ x; z ] ]
    ()

let test_loop_restricted_accepts_linear_datalog_cycles () =
  let v = Checkers.loop_restricted (theory_of [ symmetric ]) in
  Alcotest.(check bool) "symmetric closure accepted" true v.Checkers.loop_restricted;
  Alcotest.(check (list string)) "the self-loop is reported" [ "sym" ]
    v.Checkers.cyclic_rules

let test_loop_restricted_rejects_joins_on_cycles () =
  let v = Checkers.loop_restricted (theory_of [ transitive ]) in
  Alcotest.(check bool) "transitivity rejected" false v.Checkers.loop_restricted;
  Alcotest.(check (list string)) "offender named" [ "trans" ] v.Checkers.offenders

let test_loop_restricted_rejects_existential_cycles () =
  (* T_p's rule E(x,y) -> exists z. E(y,z) feeds itself and invents. *)
  let v = Checkers.loop_restricted Theories.Zoo.t_p in
  Alcotest.(check bool) "t_p rejected" false v.Checkers.loop_restricted;
  Alcotest.(check bool) "it has offenders" true (v.Checkers.offenders <> [])

let test_loop_restricted_off_cycle_existentials_are_fine () =
  (* An acyclic existential feeding a cyclic linear Datalog core. *)
  let mother = Theories.Zoo.mother and human = Theories.Zoo.human in
  let feed =
    Tgd.make ~name:"feed" ~body:[ Atom.make human [ x ] ]
      ~head:[ Atom.make mother [ x; z ] ]
      ()
  in
  let swap =
    Tgd.make ~name:"swap" ~body:[ Atom.make mother [ x; y ] ]
      ~head:[ Atom.make mother [ y; x ] ]
      ()
  in
  let v = Checkers.loop_restricted (theory_of [ feed; swap ]) in
  Alcotest.(check bool) "accepted" true v.Checkers.loop_restricted;
  Alcotest.(check (list string)) "only the swap rule cycles" [ "swap" ]
    v.Checkers.cyclic_rules

let test_generated_loop_restricted_theories_pass () =
  List.iter
    (fun seed ->
      let t =
        Theories.Generators.random_loop_restricted ~seed ~rels:3 ~rules:5
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d loop-restricted" seed)
        true
        (Checkers.loop_restricted t).Checkers.loop_restricted)
    [ 1; 2; 3; 7; 42 ]

(* ------------------------------------------------------------------ *)
(* Rewriter compatibility and T_d shape                                *)
(* ------------------------------------------------------------------ *)

let test_rewriter_compatible () =
  Alcotest.(check bool) "t_a compatible" true
    (Checkers.rewriter_compatible Theories.Zoo.t_a);
  (* T_d's (loop) has an empty body and (pins) has a domain variable:
     the piece rewriter skips both, so Complete is no certificate. *)
  Alcotest.(check bool) "t_d not compatible" false
    (Checkers.rewriter_compatible Theories.Zoo.t_d);
  Alcotest.(check bool) "t_sticky compatible" true
    (Checkers.rewriter_compatible Theories.Zoo.t_sticky)

let renamed_td =
  (* T_d with every variable renamed: the canonical key must not care. *)
  let xx = Term.var "xx" and uu = Term.var "uu" and vv = Term.var "vv" in
  let ww = Term.var "ww" and qq = Term.var "qq" in
  let r2 = Theories.Zoo.r2 and g2 = Theories.Zoo.g2 in
  Theory.make ~name:"T_d_renamed"
    [
      Tgd.make ~name:"l" ~body:[]
        ~head:[ Atom.make r2 [ xx; xx ]; Atom.make g2 [ xx; xx ] ]
        ();
      Tgd.make ~name:"p" ~dom_vars:[ xx ] ~body:[]
        ~head:[ Atom.make r2 [ xx; uu ]; Atom.make g2 [ xx; vv ] ]
        ();
      Tgd.make ~name:"g"
        ~body:
          [
            Atom.make r2 [ xx; uu ]; Atom.make g2 [ xx; ww ];
            Atom.make g2 [ ww; qq ];
          ]
        ~head:[ Atom.make r2 [ qq; vv ]; Atom.make g2 [ uu; vv ] ]
        ();
    ]

let test_td_shape () =
  let shape t = Checkers.td_shape t in
  (match shape Theories.Zoo.t_d with
  | Some Checkers.Td -> ()
  | _ -> Alcotest.fail "t_d must match the Td shape");
  (match shape renamed_td with
  | Some Checkers.Td -> ()
  | _ -> Alcotest.fail "variable renaming must not break shape detection");
  (match shape (Theories.Zoo.t_dk 3) with
  | Some (Checkers.Tdk 3) -> ()
  | _ -> Alcotest.fail "t_dk 3 must match Tdk 3");
  Alcotest.(check bool) "t_d_noloop is not T_d" true
    (shape Theories.Zoo.t_d_noloop = None);
  Alcotest.(check bool) "t_a is not T_d" true (shape Theories.Zoo.t_a = None)

let test_bdd_probe () =
  let p = Checkers.bdd_probe Theories.Zoo.t_a in
  Alcotest.(check bool) "t_a atomic queries certified" true p.Checkers.certified;
  (* Example 41 is the paper's non-BDD theory: the probe must not
     certify it (its atomic rewriting diverges into the budget). *)
  let np = Checkers.bdd_probe Theories.Zoo.t_nonbdd in
  Alcotest.(check bool) "t_nonbdd not certified" false np.Checkers.certified

(* ------------------------------------------------------------------ *)
(* plan / execute                                                      *)
(* ------------------------------------------------------------------ *)

let mother_query =
  let m = Term.var "m" in
  Cq.make ~free:[ x ] [ Atom.make Theories.Zoo.mother [ x; m ] ]

let test_plan_and_execute_t_a () =
  let plan = Portfolio.plan Theories.Zoo.t_a in
  Alcotest.(check bool) "t_a routes to rewriting" true
    (plan.Strategy.strategy = Portfolio.Ucq_rewriting);
  Alcotest.(check bool) "linear is among the reasons" true
    (List.mem "linear" plan.Strategy.reasons);
  let d = Theories.Instances.human_abel in
  let a = Portfolio.execute plan Theories.Zoo.t_a d mother_query in
  Alcotest.(check bool) "exact" true a.Strategy.exact;
  Alcotest.(check bool) "no fallback" false a.Strategy.fell_back;
  Alcotest.(check bool) "used rewriting" true
    (a.Strategy.used = Portfolio.Ucq_rewriting);
  Alcotest.(check bool) "answer is Abel" true
    (Strategy.equal_answers a.Strategy.tuples [ [ Term.const "Abel" ] ])

let test_plan_and_execute_t_d () =
  let plan = Portfolio.plan renamed_td in
  Alcotest.(check bool) "renamed T_d routes to the marked process" true
    (plan.Strategy.strategy = Portfolio.Marked_process 2);
  let a0, a2, d = Theories.Instances.path Theories.Zoo.g2 2 in
  let _, _, phi1 = Theories.Zoo.phi_r 1 in
  let a = Portfolio.execute plan renamed_td d phi1 in
  Alcotest.(check bool) "exact" true a.Strategy.exact;
  Alcotest.(check bool) "marked process used" true
    (a.Strategy.used = Portfolio.Marked_process 2);
  Alcotest.(check bool) "phi_R^1(a0,a2) among the answers" true
    (List.exists
       (fun tuple -> List.compare Term.compare tuple [ a0; a2 ] = 0)
       a.Strategy.tuples);
  (* The truncated chase is sound but incomplete on T_d, so every tuple
     it derives must appear among the marked process's exact answers. *)
  let chase, chase_exact, _ =
    Strategy.chase_arm ~max_depth:4 ~max_atoms:100_000 Theories.Zoo.t_d d phi1
  in
  Alcotest.(check bool) "chase arm cannot saturate T_d" false chase_exact;
  List.iter
    (fun tuple ->
      Alcotest.(check bool) "chase-derived answer confirmed by marked arm" true
        (List.exists
           (fun t' -> List.compare Term.compare tuple t' = 0)
           a.Strategy.tuples))
    chase

let test_execute_falls_back_on_budget () =
  (* A starved rewriting budget must not produce wrong answers: execute
     detects the incomplete outcome and falls back to the chase. *)
  let plan = Portfolio.plan Theories.Zoo.t_a in
  let budget =
    { Rewriting.Rewrite.max_disjuncts = 1; max_atoms_per_disjunct = 1;
      max_steps = 1 }
  in
  let d = Theories.Instances.human_abel in
  let a = Portfolio.execute ~budget plan Theories.Zoo.t_a d mother_query in
  Alcotest.(check bool) "fell back" true a.Strategy.fell_back;
  Alcotest.(check bool) "budgeted chase took over" true
    (a.Strategy.used = Portfolio.Budgeted_chase);
  Alcotest.(check bool) "two attempts recorded" true
    (List.length a.Strategy.attempts = 2);
  Alcotest.(check bool) "still the right answer" true
    (Strategy.equal_answers a.Strategy.tuples [ [ Term.const "Abel" ] ])

(* Routing pinned across the whole zoo: strategy, reasons and (with the
   BDD probe, on the theories where it is quick) the probe's uniform
   chase bound, which runs the core search of [Chase.Core_model]. The
   values were recorded before that search's candidate ranking moved
   onto the register machine, and must not move. *)
let test_plan_routing_pins () =
  let open Theories.Zoo in
  let show ?probe theory =
    let p = Portfolio.plan ?probe theory in
    Printf.sprintf "%s | %s | %s"
      (Portfolio.Strategy.strategy_name p.Portfolio.Strategy.strategy)
      (String.concat "; " p.Portfolio.Strategy.reasons)
      (match p.Portfolio.Strategy.report.Portfolio.Checkers.probe with
      | None -> "-"
      | Some pr -> (
          match pr.Portfolio.Checkers.uniform_bound with
          | Some b -> string_of_int b
          | None -> "none"))
  in
  List.iter
    (fun (name, theory, expected) ->
      Alcotest.(check string) name expected (show theory))
    [
      ("T_loopcut", t_loopcut, "budgeted-chase | no class evidence; chase under budget | -");
      ("T_c", t_c, "budgeted-chase | no class evidence; chase under budget | -");
      ("T_spouse", t_spouse, "ucq-rewriting | linear; sticky | -");
      ("T_e28[3]", t_e28 3, "ucq-rewriting | linear; sticky; loop-restricted | -");
      ("T_sticky", t_sticky, "ucq-rewriting | sticky | -");
      ("T_a", t_a, "ucq-rewriting | linear; sticky | -");
      ("T_p", t_p, "ucq-rewriting | linear; sticky | -");
      ("T_nonbdd", t_nonbdd, "terminating-chase | datalog; weakly acyclic | -");
      ("T_d", t_d, "marked-process[2] | matches T_d up to variable renaming | -");
      ("T_d_noloop", t_d_noloop, "budgeted-chase | no class evidence; chase under budget | -");
      ("T_ex66", t_ex66, "budgeted-chase | no class evidence; chase under budget | -");
      ("T_d^3", t_dk 3, "marked-process[3] | matches T_d^3 up to variable renaming | -");
    ];
  List.iter
    (fun (name, theory, expected) ->
      Alcotest.(check string) (name ^ " probed") expected
        (show ~probe:true theory))
    [
      ("T_loopcut", t_loopcut, "ucq-rewriting | atomic queries probe-certified | 1");
      ( "T_e28[3]", t_e28 3,
        "ucq-rewriting | linear; sticky; loop-restricted; atomic queries \
         probe-certified | 3" );
      ("T_sticky", t_sticky, "ucq-rewriting | sticky; atomic queries probe-certified | 0");
      ("T_a", t_a, "ucq-rewriting | linear; sticky; atomic queries probe-certified | 1");
      ("T_p", t_p, "ucq-rewriting | linear; sticky; atomic queries probe-certified | 0");
      ("T_nonbdd", t_nonbdd, "terminating-chase | datalog; weakly acyclic | 0");
      ("T_ex66", t_ex66, "ucq-rewriting | atomic queries probe-certified | none");
    ]

let test_plan_never_unsound_on_generated_theories () =
  (* The routing invariant on all six generator families: whatever plan
     says, the evidence it cites must actually hold. *)
  List.iter
    (fun i ->
      let s = Fuzz.sample ~seed:3 i in
      let t = s.Fuzz.triple.Minimize.theory in
      let plan = Portfolio.plan t in
      let r = plan.Strategy.report in
      let ok =
        match plan.Strategy.strategy with
        | Portfolio.Ucq_rewriting ->
            r.Checkers.rewriter_ok
            && (r.Checkers.classes.Theories.Classes.linear
               || r.Checkers.classes.Theories.Classes.sticky
               || r.Checkers.loops.Checkers.loop_restricted)
        | Portfolio.Marked_process _ -> r.Checkers.td <> None
        | Portfolio.Terminating_chase ->
            r.Checkers.classes.Theories.Classes.datalog
            || r.Checkers.classes.Theories.Classes.weakly_acyclic
        | Portfolio.Budgeted_chase -> true
      in
      Alcotest.(check bool)
        (Printf.sprintf "sample %d (%s) routed soundly" i
           (Fuzz.family_name s.Fuzz.family))
        true ok)
    (List.init 24 Fun.id)

(* ------------------------------------------------------------------ *)
(* Minimizer                                                           *)
(* ------------------------------------------------------------------ *)

let test_minimizer_against_wrong_oracle () =
  (* Inject a deliberately wrong reference oracle that answers "no"
     always; the disagreement persists exactly while the chase still
     derives the query, and the shrinker must drive the triple down to
     <= 3 rules and <= 6 facts. *)
  let junk name rel =
    Tgd.make ~name ~body:[ Atom.make rel [ x; y ] ]
      ~head:[ Atom.make rel [ y; x ] ]
      ()
  in
  let theory =
    theory_of
      [
        symmetric; transitive; junk "j1" Theories.Zoo.r2;
        junk "j2" Theories.Zoo.g2; junk "j3" Theories.Zoo.knows;
      ]
  in
  let _, _, instance = Theories.Instances.path e 8 in
  let query =
    Cq.make ~free:[]
      [ Atom.make e [ Term.var "u"; Term.var "v" ];
        Atom.make e [ Term.var "v"; Term.var "w" ] ]
  in
  let wrong_oracle _ _ _ = [] in
  let keep t d q =
    let answers, exact, _ = Strategy.chase_arm ~max_depth:6 t d q in
    exact && not (Strategy.equal_answers answers (wrong_oracle t d q))
  in
  let triple = { Minimize.theory; instance; query } in
  Alcotest.(check bool) "disagreement holds on the seed triple" true
    (keep theory instance query);
  let min = Minimize.minimize ~keep triple in
  let rules, facts, atoms = Minimize.size min in
  Alcotest.(check bool) "minimized to <= 3 rules" true (rules <= 3);
  Alcotest.(check bool) "minimized to <= 6 facts" true (facts <= 6);
  Alcotest.(check bool) "query did not grow" true (atoms <= Cq.size query);
  Alcotest.(check bool) "disagreement survives minimization" true
    (keep min.Minimize.theory min.Minimize.instance min.Minimize.query);
  (* 1-minimality on facts: dropping any one loses the disagreement
     (a boolean one-atom query needs exactly its matching fact). *)
  Alcotest.(check int) "one fact suffices" 1 facts

let test_minimizer_returns_input_when_keep_fails () =
  let triple =
    {
      Minimize.theory = theory_of [ symmetric ];
      instance = Fact_set.of_list [ Atom.make e [ Term.const "a"; Term.const "b" ] ];
      query = Cq.make ~free:[] [ Atom.make e [ x; y ] ];
    }
  in
  let min = Minimize.minimize ~keep:(fun _ _ _ -> false) triple in
  Alcotest.(check bool) "unchanged" true
    (Minimize.size min = Minimize.size triple)

(* ------------------------------------------------------------------ *)
(* Repro round-trips                                                   *)
(* ------------------------------------------------------------------ *)

let test_repro_roundtrip_on_samples () =
  List.iter
    (fun i ->
      let s = Fuzz.sample ~seed:9 i in
      let repro =
        { Repro.triple = s.Fuzz.triple; meta = [ ("seed", "9") ] }
      in
      let back = Repro.parse (Repro.render repro) in
      let t0 = s.Fuzz.triple and t1 = back.Repro.triple in
      Alcotest.(check int)
        (Printf.sprintf "sample %d rule count" i)
        (List.length (Theory.rules t0.Minimize.theory))
        (List.length (Theory.rules t1.Minimize.theory));
      Alcotest.(check bool)
        (Printf.sprintf "sample %d instance" i)
        true
        (Fact_set.equal t0.Minimize.instance t1.Minimize.instance);
      Alcotest.(check bool)
        (Printf.sprintf "sample %d meta" i)
        true
        (back.Repro.meta = [ ("seed", "9") ]);
      (* Semantics preserved: the chase arm answers identically. *)
      let a0, _, _ =
        Strategy.chase_arm ~max_depth:8 t0.Minimize.theory t0.Minimize.instance
          t0.Minimize.query
      in
      let a1, _, _ =
        Strategy.chase_arm ~max_depth:8 t1.Minimize.theory t1.Minimize.instance
          t1.Minimize.query
      in
      Alcotest.(check bool)
        (Printf.sprintf "sample %d answers" i)
        true
        (Strategy.equal_answers a0 a1))
    (List.init 6 Fun.id)

let test_repro_quotes_constants () =
  (* Constants in rules and queries must round-trip through quoting
     (bare identifiers in rule position parse as variables). *)
  let c = Term.const "joint" in
  let theory =
    theory_of
      [
        Tgd.make ~name:"k0"
          ~body:[ Atom.make e [ x; c ] ]
          ~head:[ Atom.make Theories.Zoo.r2 [ x; c ] ]
          ();
      ]
  in
  let triple =
    {
      Minimize.theory;
      instance = Fact_set.of_list [ Atom.make e [ Term.const "a"; c ] ];
      query = Cq.make ~free:[ x ] [ Atom.make Theories.Zoo.r2 [ x; c ] ];
    }
  in
  let rendered = Repro.render { Repro.triple; meta = [] } in
  let back = Repro.parse rendered in
  Alcotest.(check string) "stable under re-rendering" rendered
    (Repro.render { back with Repro.meta = [] });
  let a, _, _ =
    Strategy.chase_arm ~max_depth:2 back.Repro.triple.Minimize.theory
      back.Repro.triple.Minimize.instance back.Repro.triple.Minimize.query
  in
  Alcotest.(check bool) "constant survived as a constant" true
    (Strategy.equal_answers a [ [ Term.const "a" ] ])

(* ------------------------------------------------------------------ *)
(* Fuzz campaign smoke                                                 *)
(* ------------------------------------------------------------------ *)

let test_sample_determinism () =
  List.iter
    (fun i ->
      let show s =
        Fmt.str "%a|%a|%a" Theory.pp s.Fuzz.triple.Minimize.theory
          Fact_set.pp s.Fuzz.triple.Minimize.instance Cq.pp
          s.Fuzz.triple.Minimize.query
      in
      Alcotest.(check string)
        (Printf.sprintf "sample %d replays" i)
        (show (Fuzz.sample ~seed:5 i))
        (show (Fuzz.sample ~seed:5 i)))
    (List.init 12 Fun.id)

let test_campaign_zero_failures () =
  let outcome = Fuzz.campaign ~seed:42 ~count:fuzz_count () in
  Alcotest.(check int) "all samples ran" fuzz_count outcome.Fuzz.samples;
  Alcotest.(check int) "zero disagreements" 0
    (List.length outcome.Fuzz.failures);
  Alcotest.(check int) "every sample accounted for" fuzz_count
    (outcome.Fuzz.agreed + outcome.Fuzz.single_arm);
  (* The per-strategy tally covers every sample too. *)
  Alcotest.(check int) "strategy tally" fuzz_count
    (List.fold_left (fun acc (_, n) -> acc + n) 0 outcome.Fuzz.by_strategy)

let test_campaign_writes_minimized_repro () =
  (* Force a failure through a guard-free raising arm? No: instead run
     the minimizer + repro path directly, as the campaign would, and
     check the file lands where the campaign promises. *)
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "frontier-fuzz-test" in
  let s = Fuzz.sample ~seed:3 1 in
  let failure =
    {
      Fuzz.sample = s;
      arms = [];
      error = Some "synthetic";
      minimized = s.Fuzz.triple;
      repro_path = None;
    }
  in
  let failure =
    Fuzz.write_repro ~dir:(Some dir) ~seed:3 failure [ ("kind", "synthetic") ]
  in
  match failure.Fuzz.repro_path with
  | None -> Alcotest.fail "repro path must be set"
  | Some path ->
      Alcotest.(check bool) "file exists" true (Sys.file_exists path);
      let loaded = Repro.load path in
      Alcotest.(check bool) "parses back" true
        (Fact_set.equal loaded.Repro.triple.Minimize.instance
           s.Fuzz.triple.Minimize.instance);
      Sys.remove path

let () =
  Alcotest.run "portfolio"
    [
      ( "checkers",
        [
          Alcotest.test_case "loop-restricted accepts linear datalog cycles"
            `Quick test_loop_restricted_accepts_linear_datalog_cycles;
          Alcotest.test_case "loop-restricted rejects joins on cycles" `Quick
            test_loop_restricted_rejects_joins_on_cycles;
          Alcotest.test_case "loop-restricted rejects existential cycles"
            `Quick test_loop_restricted_rejects_existential_cycles;
          Alcotest.test_case "off-cycle existentials are fine" `Quick
            test_loop_restricted_off_cycle_existentials_are_fine;
          Alcotest.test_case "generated loop-restricted theories pass" `Quick
            test_generated_loop_restricted_theories_pass;
          Alcotest.test_case "rewriter compatibility" `Quick
            test_rewriter_compatible;
          Alcotest.test_case "T_d shape detection" `Quick test_td_shape;
          Alcotest.test_case "bdd probe" `Quick test_bdd_probe;
        ] );
      ( "selector",
        [
          Alcotest.test_case "plan+execute T_a" `Quick test_plan_and_execute_t_a;
          Alcotest.test_case "plan+execute renamed T_d" `Quick
            test_plan_and_execute_t_d;
          Alcotest.test_case "starved budget falls back" `Quick
            test_execute_falls_back_on_budget;
          Alcotest.test_case "routing is sound on generated theories" `Quick
            test_plan_never_unsound_on_generated_theories;
          Alcotest.test_case "zoo routing pins" `Quick test_plan_routing_pins;
        ] );
      ( "minimizer",
        [
          Alcotest.test_case "wrong oracle converges small" `Quick
            test_minimizer_against_wrong_oracle;
          Alcotest.test_case "keep-fails returns input" `Quick
            test_minimizer_returns_input_when_keep_fails;
        ] );
      ( "repro",
        [
          Alcotest.test_case "sample round-trips" `Quick
            test_repro_roundtrip_on_samples;
          Alcotest.test_case "constants are quoted" `Quick
            test_repro_quotes_constants;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "samples are deterministic" `Quick
            test_sample_determinism;
          Alcotest.test_case "seeded campaign has zero failures" `Quick
            test_campaign_zero_failures;
          Alcotest.test_case "failures write minimized repros" `Quick
            test_campaign_writes_minimized_repro;
        ] );
    ]
