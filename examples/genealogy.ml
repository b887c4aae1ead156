(* Genealogy: ontology-mediated query answering over a family database.

   A small description-logic-flavoured ontology (binary, linear — hence BDD
   and local, Theorem 3) over parents, ancestors and royals; the example
   shows query answering by rewriting, core termination, and the uniform
   bound of Theorem 4 on a family of instances.

   Run with: dune exec examples/genealogy.exe *)

let ontology =
  Frontier.Parse.theory ~name:"genealogy"
    "parent_is_ancestor: Parent(x,y) -> Ancestor(x,y)\n\
     royal_has_parent:   Royal(x) -> exists p. Parent(p,x)\n\
     royal_parent:       Parent(p,x), Royal(x) -> Royal(p)\n\
     ancestors_compose:  Ancestor(x,y), Ancestor(y,z) -> Ancestor(x,z)"

let database =
  Frontier.Parse.instance
    "Parent(victoria, edward7). Parent(edward7, george5).\n\
     Parent(george5, george6). Parent(george6, elizabeth2).\n\
     Royal(elizabeth2). Human(victoria)"

let () =
  Fmt.pr "ontology:@.%a@.@." Frontier.Theory.pp ontology;
  Fmt.pr "classification: %a@.@." Frontier.Classes.pp_report
    (Frontier.classify ontology);

  (* Who are Elizabeth's certain ancestors? The portfolio finds no
     rewriting-friendly class here (the Ancestor rule joins, the royalty
     rules cycle through an existential), so it plans a budgeted chase. *)
  let plan = Frontier.Portfolio.plan ontology in
  let show label (a : Frontier.Portfolio.Strategy.answers) =
    Fmt.pr "%s (%d, via %s, %s):@." label (List.length a.tuples)
      (Frontier.Portfolio.Strategy.strategy_name a.used)
      (if a.exact then "exact" else "sound, possibly incomplete");
    List.iter
      (fun t ->
        Fmt.pr "  %a@." (Fmt.list ~sep:(Fmt.any ", ") Frontier.Term.pp) t)
      a.tuples
  in
  let q = Frontier.Parse.query "(a) :- Ancestor(a, \"elizabeth2\")" in
  show "certain ancestors of elizabeth2"
    (Frontier.Portfolio.execute ~max_depth:8 plan ontology database q);

  (* Royalty propagates up the (partially unknown) parent chain: the chase
     invents a parent for every royal; certain royals stay certain. *)
  let royals = Frontier.Parse.query "(x) :- Royal(x)" in
  Fmt.pr "@.";
  show "certain royals"
    (Frontier.Portfolio.execute ~max_depth:8 plan ontology database royals);

  (* Rewriting of the royalty query: it climbs the explicit parent chain. *)
  let r = Frontier.Rewrite.rewrite ontology royals in
  (match r.Frontier.Rewrite.outcome with
  | Frontier.Rewrite.Complete ->
      Fmt.pr "@.rew(Royal(x)) has %d disjuncts, max size %d@."
        (Frontier.Ucq.cardinal r.Frontier.Rewrite.ucq)
        (Frontier.Ucq.max_disjunct_size r.Frontier.Rewrite.ucq)
  | _ -> Fmt.pr "@.rewriting incomplete (Datalog ancestor closure)@.");

  (* Royals marry: every royal has a spouse, spousehood is symmetric, and
     spouses are royal. Unlike open-ended parent chains, invented spouses
     fold back after one round — the theory is core-terminating AND local,
     so Theorem 4 promises a uniform chase bound; watch c_{T,D} stay flat
     while the family grows. *)
  let marriages =
    Frontier.Parse.theory ~name:"marriages"
      "has:  Royal(x) -> exists s. Spouse(x,s)\n\
       sym:  Spouse(x,y) -> Spouse(y,x)\n\
       roy:  Spouse(x,y) -> Royal(y)"
  in
  let court n =
    Frontier.Parse.instance
      (String.concat ". "
         (List.init n (fun i -> Printf.sprintf "Royal(r%d)" i)))
  in
  Fmt.pr "@.Theorem 4 in action — c_T,D for growing courts under %s:@."
    (Frontier.Theory.name marriages);
  List.iter
    (fun n ->
      match
        Frontier.Termination.core_terminates_on ~max_c:6 ~lookahead:4
          marriages (court n)
      with
      | Frontier.Termination.Holds c ->
          Fmt.pr "  court of %d royals: model inside stage %d@." n c
      | _ -> Fmt.pr "  court of %d royals: budget exhausted@." n)
    [ 1; 2; 4; 6 ];

  (* Contrast: open-ended parent invention (essentially Exercise 12) does
     NOT core-terminate — there is nothing for the fresh ancestors to fold
     onto. *)
  let parents_only =
    Frontier.Parse.theory ~name:"parents"
      "Royal(x) -> exists p. Parent(p,x). Parent(p,x), Royal(x) -> Royal(p)"
  in
  (match
     Frontier.Termination.core_terminates_on ~max_c:5 ~lookahead:4
       parents_only (court 1)
   with
  | Frontier.Termination.Holds c ->
      Fmt.pr "@.unexpected: parent fragment terminated at %d@." c
  | _ ->
      Fmt.pr
        "@.parent fragment: no model within budget — ancestors never fold \
         (it is BDD but, like Exercise 12, not FES)@.")
