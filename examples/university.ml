(* University: ontology-mediated query answering at (slightly) larger
   scale, through the portfolio: plan once for the ontology, then
   execute each query.

   A LUBM-flavoured ontology over departments, courses, staff and
   students. The existential rules invent unknown supervisors, curricula
   and employers; the ontology is linear, so queries are answered by UCQ
   rewritings with no chase at query time, and every answer can be
   explained by a derivation tree over the original database.

   Run with: dune exec examples/university.exe *)

open Frontier

let ontology =
  Parse.theory ~name:"university"
    "prof_is_staff:     Professor(x) -> Staff(x)\n\
     staff_employed:    Staff(x) -> exists d. WorksFor(x, d)\n\
     works_dept:        WorksFor(x, d) -> Department(d)\n\
     dept_offers:       Department(d) -> exists c. Offers(d, c)\n\
     offers_course:     Offers(d, c) -> Course(c)\n\
     phd_supervised:    PhdStudent(s) -> exists p. SupervisedBy(s, p)\n\
     supervisor_prof:   SupervisedBy(s, p) -> Professor(p)\n\
     teaches_course:    Teaches(x, c) -> Course(c)\n\
     teaches_staff:     Teaches(x, c) -> Staff(x)\n\
     takes_student:     Takes(s, c) -> Student(s)\n\
     phd_is_student:    PhdStudent(s) -> Student(s)"

let database =
  Parse.instance
    "Professor(turing). Professor(hopper).\n\
     PhdStudent(ada). PhdStudent(haskell).\n\
     SupervisedBy(ada, turing).\n\
     Teaches(hopper, compilers). Takes(ada, compilers).\n\
     WorksFor(turing, cs).\n\
     Takes(grace, compilers)"

let show_answers label (a : Portfolio.Strategy.answers) =
  Fmt.pr "%s (%d answers, via %s, %s):@." label (List.length a.tuples)
    (Portfolio.Strategy.strategy_name a.used)
    (if a.exact then "exact" else "sound, possibly incomplete");
  List.iter
    (fun tuple ->
      Fmt.pr "  (%a)@." (Fmt.list ~sep:(Fmt.any ", ") Term.pp) tuple)
    a.tuples

let () =
  Fmt.pr "classification: %a@.@." Classes.pp_report (classify ontology);
  let plan = Portfolio.plan ontology in
  Fmt.pr "plan: %s (%s)@.@."
    (Portfolio.Strategy.strategy_name plan.strategy)
    (String.concat "; " plan.reasons);
  let answer q = Portfolio.execute plan ontology database q in

  (* Who is certainly employed somewhere? Professors are staff, staff work
     for some (possibly unknown) department. *)
  let q_employed = Parse.query "(x) :- WorksFor(x, d)" in
  show_answers "employed" (answer q_employed);
  (let r = Rewrite.rewrite ontology q_employed in
   if r.Rewrite.outcome = Rewrite.Complete then
     Fmt.pr "  [rew has %d disjuncts, max size %d]@.@."
       (Ucq.cardinal r.Rewrite.ucq)
       (Ucq.max_disjunct_size r.Rewrite.ucq));

  (* Which departments certainly offer a course? Note cs is only known to
     be a department through turing's employment. *)
  let q_offering = Parse.query "(d) :- Offers(d, c)" in
  show_answers "departments offering a course" (answer q_offering);

  (* Students: via Takes, via PhdStudent. *)
  let q_students = Parse.query "(s) :- Student(s)" in
  show_answers "certain students" (answer q_students);

  (* Every PhD student certainly has a professor supervisor — even
     haskell, whose supervisor is invented. *)
  let q_supervised = Parse.query "(s) :- SupervisedBy(s, p), Professor(p)" in
  show_answers "supervised by a professor" (answer q_supervised);

  (* Explain one answer end-to-end: why is haskell supervised? *)
  let run = Chase_engine.run ~max_depth:5 ontology database in
  (match Explain.explain run (Parse.query "(s) :- SupervisedBy(s, p)") [ Term.const "haskell" ] with
  | Some expl ->
      Fmt.pr "@.why is haskell supervised?@.%a@." Explain.pp expl
  | None -> Fmt.pr "@.haskell unexplained?!@.");

  (* And the whole thing again, without existential invention: the
     restricted chase reaches a finite model of this ontology. *)
  let r = Chase_variants.run_restricted ~max_applications:200 ontology database in
  Fmt.pr "@.restricted chase: %s after %d applications (%d facts)@."
    (if r.Chase_variants.saturated then "finite model" else "no model yet")
    r.Chase_variants.steps
    (Fact_set.cardinal r.Chase_variants.facts)
