open Logic

type family = Linear | Datalog | Guarded | Sticky | Loop_restricted | Mixed

let families = [| Linear; Datalog; Guarded; Sticky; Loop_restricted; Mixed |]

let family_name = function
  | Linear -> "linear"
  | Datalog -> "datalog"
  | Guarded -> "guarded"
  | Sticky -> "sticky"
  | Loop_restricted -> "loop-restricted"
  | Mixed -> "mixed"

type sample = {
  index : int;
  family : family;
  triple : Minimize.triple;
}

(* Arm budgets: small enough that a 500-sample campaign stays fast,
   large enough that Datalog chases saturate and linear/sticky
   rewritings complete on these sizes. *)
let chase_depth = 15
let chase_atoms = 8_000

let rewrite_budget =
  {
    Rewriting.Rewrite.max_disjuncts = 60;
    max_atoms_per_disjunct = 10;
    max_steps = 250;
  }

let random_query state theory =
  let rels =
    Symbol.Set.elements
      (Symbol.Set.filter (fun s -> Symbol.arity s = 2) (Theory.signature theory))
    |> List.sort (fun a b -> String.compare (Symbol.name a) (Symbol.name b))
  in
  let vars = [| Term.var "x"; Term.var "y"; Term.var "z"; Term.var "w" |] in
  let pick_var () = vars.(Random.State.int state (Array.length vars)) in
  let pick_rel () = List.nth rels (Random.State.int state (List.length rels)) in
  let n_atoms = 1 + Random.State.int state 2 in
  let atoms =
    List.init n_atoms (fun _ ->
        Atom.make (pick_rel ()) [ pick_var (); pick_var () ])
  in
  let body_vars =
    List.concat_map Atom.vars atoms |> List.sort_uniq Term.compare
  in
  let boolean = Random.State.int state 5 = 0 in
  let free =
    if boolean then []
    else [ List.nth body_vars (Random.State.int state (List.length body_vars)) ]
  in
  Cq.make ~free atoms

let sample ~seed index =
  let state = Random.State.make [| 0x5eed; seed; index |] in
  let family = families.(index mod Array.length families) in
  let sub = Random.State.int state 1_000_000 in
  let rels = 2 + Random.State.int state 2 in
  let rules = 2 + Random.State.int state 3 in
  let theory =
    match family with
    | Linear -> Theories.Generators.random_linear_binary ~seed:sub ~rels ~rules
    | Datalog -> Theories.Generators.random_datalog_binary ~seed:sub ~rels ~rules
    | Guarded -> Theories.Generators.random_guarded ~seed:sub ~rels ~rules
    | Sticky -> Theories.Generators.random_sticky ~seed:sub ~rels ~rules
    | Loop_restricted ->
        Theories.Generators.random_loop_restricted ~seed:sub ~rels ~rules
    | Mixed ->
        Theory.make ~name:(Printf.sprintf "mixed[%d]" sub)
          (Theory.rules
             (Theories.Generators.random_linear_binary ~seed:sub ~rels
                ~rules:(max 1 (rules / 2)))
          @ Theory.rules
              (Theories.Generators.random_datalog_binary ~seed:(sub + 1) ~rels
                 ~rules:(max 1 (rules - (rules / 2)))))
  in
  let nodes = 3 + Random.State.int state 3 in
  let facts = 4 + Random.State.int state 5 in
  let instance =
    Theories.Generators.random_instance_for ~seed:(sub + 13) theory ~nodes
      ~facts
  in
  let query = random_query state theory in
  { index; family; triple = { Minimize.theory; instance; query } }

(* ------------------------------------------------------------------ *)
(* Arms and cross-checking                                            *)
(* ------------------------------------------------------------------ *)

type arm = {
  arm : string;
  answers : Term.t list list;
  exact : bool;
}

let arms_of ?pool ?guard { Minimize.theory; instance; query } plan =
  let chase_tuples, chase_exact, _ =
    Strategy.chase_arm ?pool ?guard ~max_depth:chase_depth
      ~max_atoms:chase_atoms theory instance query
  in
  let chase = { arm = "chase"; answers = chase_tuples; exact = chase_exact } in
  let rewriting =
    if Checkers.rewriter_compatible theory then
      let tuples, exact, _ =
        Strategy.rewriting_arm ?guard ~budget:rewrite_budget theory
          instance query
      in
      [ { arm = "rewriting"; answers = tuples; exact } ]
    else []
  in
  let portfolio =
    let a =
      Strategy.execute ?pool ?guard ~budget:rewrite_budget
        ~max_depth:chase_depth ~max_atoms:chase_atoms plan theory instance
        query
    in
    {
      arm = Printf.sprintf "portfolio:%s" (Strategy.strategy_name a.Strategy.used);
      answers = a.Strategy.tuples;
      exact = a.Strategy.exact;
    }
  in
  (chase :: rewriting) @ [ portfolio ]

let run_sample ?pool ?guard s =
  let plan = Strategy.plan ?pool ?guard s.triple.Minimize.theory in
  (arms_of ?pool ?guard s.triple plan, plan)

(* [`Agree], [`Single] (nothing to cross-check), or the disagreeing
   exact arms. *)
let verdict arms =
  match List.filter (fun a -> a.exact) arms with
  | [] | [ _ ] -> `Single
  | a :: rest ->
      if List.for_all (fun b -> Strategy.equal_answers a.answers b.answers) rest
      then `Agree
      else `Disagree

(* The minimizer's kept property: the triple still shows >= 2 exact,
   disagreeing arms (engines re-run with the campaign budgets). *)
let still_disagrees ?pool theory instance query =
  let triple = { Minimize.theory; instance; query } in
  let plan = Strategy.plan ?pool theory in
  match verdict (arms_of ?pool triple plan) with
  | `Disagree -> true
  | `Agree | `Single -> false

let still_raises ?pool theory instance query =
  let triple = { Minimize.theory; instance; query } in
  match
    let plan = Strategy.plan ?pool theory in
    arms_of ?pool triple plan
  with
  | _ -> false
  | exception _ -> true

type failure = {
  sample : sample;
  arms : arm list;
  error : string option;
  minimized : Minimize.triple;
  repro_path : string option;
}

type outcome = {
  seed : int;
  samples : int;
  agreed : int;
  single_arm : int;
  failures : failure list;
  by_family : (string * int) list;
  by_strategy : (string * int) list;
  wall_s : float;
}

let write_repro ~dir ~seed failure extra_meta =
  match dir with
  | None -> failure
  | Some dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path =
        Filename.concat dir
          (Printf.sprintf "fuzz-seed%d-sample%d.repro" seed
             failure.sample.index)
      in
      let meta =
        [
          ("seed", string_of_int seed);
          ("sample", string_of_int failure.sample.index);
          ("family", family_name failure.sample.family);
        ]
        @ extra_meta
        @ List.map
            (fun a ->
              ( "arm " ^ a.arm,
                Printf.sprintf "%s, %d answers"
                  (if a.exact then "exact" else "inexact")
                  (List.length a.answers) ))
            failure.arms
      in
      Repro.write ~path { Repro.triple = failure.minimized; meta };
      { failure with repro_path = Some path }

let campaign ?pool ?guard ?dir ~seed ~count () =
  let t0 = Unix.gettimeofday () in
  let bump table key =
    let n = Option.value ~default:0 (Hashtbl.find_opt table key) in
    Hashtbl.replace table key (n + 1)
  in
  let by_family = Hashtbl.create 8 and by_strategy = Hashtbl.create 8 in
  let agreed = ref 0 and single = ref 0 and ran = ref 0 in
  let failures = ref [] in
  (try
     for index = 0 to count - 1 do
       (match guard with
       | Some g when Guard.status g <> None -> raise Exit
       | _ -> ());
       let s = sample ~seed index in
       incr ran;
       bump by_family (family_name s.family);
       match run_sample ?pool ?guard s with
       | arms, plan -> (
           bump by_strategy (Strategy.strategy_name plan.Strategy.strategy);
           match verdict arms with
           | `Agree -> incr agreed
           | `Single -> incr single
           | `Disagree ->
               let minimized =
                 Minimize.minimize
                   ~keep:(fun th d q -> still_disagrees ?pool th d q)
                   s.triple
               in
               let failure =
                 {
                   sample = s;
                   arms;
                   error = None;
                   minimized;
                   repro_path = None;
                 }
               in
               failures :=
                 write_repro ~dir ~seed failure
                   [ ("kind", "disagreement") ]
                 :: !failures)
       | exception Exit -> raise Exit
       | exception exn ->
           let minimized =
             Minimize.minimize
               ~keep:(fun th d q -> still_raises ?pool th d q)
               s.triple
           in
           let failure =
             {
               sample = s;
               arms = [];
               error = Some (Printexc.to_string exn);
               minimized;
               repro_path = None;
             }
           in
           failures :=
             write_repro ~dir ~seed failure
               [ ("kind", "exception"); ("error", Printexc.to_string exn) ]
             :: !failures
     done
   with Exit -> ());
  let sorted table =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    seed;
    samples = !ran;
    agreed = !agreed;
    single_arm = !single;
    failures = List.rev !failures;
    by_family = sorted by_family;
    by_strategy = sorted by_strategy;
    wall_s = Unix.gettimeofday () -. t0;
  }

let pp_outcome ppf o =
  Fmt.pf ppf
    "campaign seed %d: %d samples in %.2fs — %d agreed, %d single-arm, %d \
     failures@."
    o.seed o.samples o.wall_s o.agreed o.single_arm (List.length o.failures);
  let pp_counts name counts =
    Fmt.pf ppf "%s: %s@." name
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) counts))
  in
  pp_counts "families" o.by_family;
  pp_counts "strategies" o.by_strategy;
  List.iter
    (fun f ->
      let rules, facts, atoms = Minimize.size f.minimized in
      Fmt.pf ppf
        "FAILURE sample %d (%s)%s: minimized to %d rules, %d facts, %d \
         query atoms%s@."
        f.sample.index
        (family_name f.sample.family)
        (match f.error with Some e -> " raised " ^ e | None -> "")
        rules facts atoms
        (match f.repro_path with
        | Some p -> " — repro at " ^ p
        | None -> ""))
    o.failures
