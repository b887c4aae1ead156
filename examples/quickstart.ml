(* Quickstart: parse a theory, chase an instance, answer a query — both
   through the portfolio (which picks the UCQ rewriting, the BDD way) and
   through the chase.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* Example 1 of the paper. *)
  let theory =
    Frontier.Parse.theory ~name:"T_a"
      "mother: Human(y) -> exists z. Mother(y,z)\n\
       human:  Mother(x,y) -> Human(y)"
  in
  let instance = Frontier.Parse.instance "Human(abel)" in
  let query = Frontier.Parse.query "(x) :- Mother(x, m), Mother(m, g)" in

  Fmt.pr "theory:@.%a@.@." Frontier.Theory.pp theory;
  Fmt.pr "classification: %a@.@." Frontier.Classes.pp_report
    (Frontier.classify theory);

  (* The chase builds Abel's maternal line, inventing terms as needed. *)
  let run = Frontier.Chase_engine.run ~max_depth:4 theory instance in
  Fmt.pr "chase to depth %d:@.%a@.@."
    (Frontier.Chase_engine.depth run)
    Frontier.Fact_set.pp
    (Frontier.Chase_engine.result run);

  (* Certain answers: who certainly has a maternal grandmother? The
     portfolio plans once per theory — T_a is linear, so it picks UCQ
     rewriting (Theorem 1) — and executes per (instance, query): it
     evaluates the rewriting directly over the instance, with no chase,
     and would fall back to the chase had the rewriting not completed. *)
  let plan = Frontier.Portfolio.plan theory in
  let a = Frontier.Portfolio.execute plan theory instance query in
  Fmt.pr "certain answers of %a (via %s, %s):@." Frontier.Cq.pp query
    (Frontier.Portfolio.Strategy.strategy_name a.used)
    (if a.exact then "exact" else "sound, possibly incomplete");
  List.iter
    (fun tuple ->
      Fmt.pr "  (%a)@." (Fmt.list ~sep:(Fmt.any ", ") Frontier.Term.pp) tuple)
    a.tuples;

  (* The rewriting it evaluated, and the same answers the slow way:
     chase first, then query the (never saturating) chase prefix. *)
  let r = Frontier.Rewrite.rewrite theory query in
  Fmt.pr "@.UCQ rewriting (%d disjuncts):@.%a@."
    (Frontier.Ucq.cardinal r.Frontier.Rewrite.ucq)
    Frontier.Ucq.pp r.Frontier.Rewrite.ucq;
  let via_chase, _, _ =
    Frontier.Portfolio.Strategy.chase_arm ~max_depth:5 theory instance query
  in
  Fmt.pr "@.answers via the chase: %d (rewriting found %d) — %s@."
    (List.length via_chase) (List.length a.tuples)
    (if Frontier.Portfolio.Strategy.equal_answers via_chase a.tuples then
       "they agree"
     else "MISMATCH")
