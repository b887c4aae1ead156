open Logic

type strategy =
  | Ucq_rewriting
  | Terminating_chase
  | Marked_process of int
  | Budgeted_chase

let strategy_name = function
  | Ucq_rewriting -> "ucq-rewriting"
  | Terminating_chase -> "terminating-chase"
  | Marked_process k -> Printf.sprintf "marked-process[%d]" k
  | Budgeted_chase -> "budgeted-chase"

let pp_strategy ppf s = Fmt.string ppf (strategy_name s)

type plan = {
  strategy : strategy;
  reasons : string list;
  report : Checkers.report;
}

let plan ?pool ?guard ?probe t =
  let report = Checkers.classify ?pool ?guard ?probe t in
  let classes = report.Checkers.classes in
  match report.Checkers.td with
  | Some Checkers.Td ->
      {
        strategy = Marked_process 2;
        reasons = [ "matches T_d up to variable renaming" ];
        report;
      }
  | Some (Checkers.Tdk k) ->
      {
        strategy = Marked_process k;
        reasons = [ Printf.sprintf "matches T_d^%d up to variable renaming" k ];
        report;
      }
  | None ->
      let fus_reasons =
        List.filter_map
          (fun (cond, why) -> if cond then Some why else None)
          [
            (classes.Theories.Classes.linear, "linear");
            (classes.Theories.Classes.sticky, "sticky");
            ( report.Checkers.loops.Checkers.loop_restricted,
              "loop-restricted" );
            ( (match report.Checkers.probe with
              | Some p -> p.Checkers.certified
              | None -> false),
              "atomic queries probe-certified" );
          ]
      in
      if report.Checkers.rewriter_ok && fus_reasons <> [] then
        { strategy = Ucq_rewriting; reasons = fus_reasons; report }
      else
        let chase_reasons =
          List.filter_map
            (fun (cond, why) -> if cond then Some why else None)
            [
              (classes.Theories.Classes.datalog, "datalog");
              (classes.Theories.Classes.weakly_acyclic, "weakly acyclic");
            ]
        in
        if chase_reasons <> [] then
          { strategy = Terminating_chase; reasons = chase_reasons; report }
        else
          {
            strategy = Budgeted_chase;
            reasons = [ "no class evidence; chase under budget" ];
            report;
          }

(* ------------------------------------------------------------------ *)
(* Arms                                                               *)
(* ------------------------------------------------------------------ *)

let normalize_tuples ts = List.sort_uniq (List.compare Term.compare) ts

let equal_answers a b =
  List.compare (List.compare Term.compare) a b = 0

let empty_stats =
  {
    Saturation.Stats.rounds = 0;
    totals = Saturation.Stats.zero;
    wall_s = 0.;
  }

let chase_arm ?pool ?guard ?(max_depth = 40) ?(max_atoms = 200_000) t d q =
  let run = Chase.Engine.run ?pool ?guard ~max_depth ~max_atoms t d in
  let model = Chase.Engine.result run in
  let tuples, complete =
    if Cq.free q = [] then
      ((if Eval.boolean_holds q model then [ [] ] else []), true)
    else
      let dom = Fact_set.domain d in
      let keep ts =
        List.filter (List.for_all (fun tm -> Term.Set.mem tm dom)) ts
      in
      match Eval.answers_outcome ?guard q model with
      | Guard.Complete ts -> (keep ts, true)
      | Guard.Exhausted { partial; _ } ->
          (* sound but possibly incomplete extraction *)
          (keep partial, false)
  in
  ( normalize_tuples tuples,
    complete && Chase.Engine.saturated run,
    Chase.Engine.kernel_stats run )

let rewriting_arm ?guard ?budget t d q =
  let r = Rewriting.Rewrite.rewrite ?guard ?budget t q in
  let complete = r.Rewriting.Rewrite.outcome = Rewriting.Rewrite.Complete in
  if not complete then ([], false, r.Rewriting.Rewrite.kernel_stats)
  else if Cq.free q = [] then
    ( (if Eval.ucq_boolean_holds r.Rewriting.Rewrite.ucq d then [ [] ] else []),
      true,
      r.Rewriting.Rewrite.kernel_stats )
  else
    match Eval.ucq_answers_outcome ?guard r.Rewriting.Rewrite.ucq d with
    | Guard.Complete tuples ->
        (normalize_tuples tuples, true, r.Rewriting.Rewrite.kernel_stats)
    | Guard.Exhausted { partial; _ } ->
        (* sound but possibly incomplete: report inexact so the
           portfolio's validation layer does not certify the answer *)
        (normalize_tuples partial, false, r.Rewriting.Rewrite.kernel_stats)

(* The marked process answers queries over the level signature of
   T_d/T_d^K. Returns [None] when the query falls outside its contract
   (foreign relations, disconnected body) — the caller then falls back. *)
let marked_arm ?guard ~levels d q =
  let level_syms =
    if levels = 2 then Symbol.Set.of_list [ Theories.Zoo.g2; Theories.Zoo.r2 ]
    else
      Symbol.Set.of_list (List.init levels (fun i -> Theories.Zoo.i_k (i + 1)))
  in
  let q_sig =
    List.fold_left
      (fun acc a -> Symbol.Set.add (Atom.rel a) acc)
      Symbol.Set.empty (Cq.atoms q)
  in
  if not (Symbol.Set.subset q_sig level_syms) then None
  else if Cq.free q = [] then
    (* Process.boolean_always_true: the (loop) rule makes every boolean
       CQ over the level signature hold on every instance. *)
    Some ([ [] ], true, empty_stats)
  else if not (Cq.is_connected q) then None
  else
    let result =
      if levels = 2 then Marked.Process.rewrite_td ?guard q
      else Marked.Process.rewrite_tdk ?guard levels q
    in
    if not result.Marked.Process.complete then
      Some ([], false, result.Marked.Process.kernel_stats)
    else
      let dom = Term.Set.elements (Fact_set.domain d) in
      let width = List.length (Cq.free q) in
      let n = List.length dom in
      let count = int_of_float (float_of_int n ** float_of_int width) in
      if count > 20_000 then None
      else
        let rec tuples_of k =
          if k = 0 then [ [] ]
          else
            let rest = tuples_of (k - 1) in
            List.concat_map (fun c -> List.map (fun tl -> c :: tl) rest) dom
        in
        let tuples =
          List.filter
            (fun tuple -> Marked.Process.holds_via_rewriting result d tuple)
            (tuples_of width)
        in
        Some (normalize_tuples tuples, true, result.Marked.Process.kernel_stats)

(* ------------------------------------------------------------------ *)
(* Execution with run-time validation and fallback                    *)
(* ------------------------------------------------------------------ *)

type answers = {
  tuples : Term.t list list;
  exact : bool;
  used : strategy;
  fell_back : bool;
  attempts : (string * Saturation.Stats.t) list;
}

let execute ?pool ?guard ?budget ?max_depth ?max_atoms plan t d q =
  let attempts = ref [] in
  let record name stats = attempts := (name, stats) :: !attempts in
  let finish ~used ~fell_back (tuples, exact, stats) =
    record (strategy_name used) stats;
    { tuples; exact; used; fell_back; attempts = List.rev !attempts }
  in
  let chase_fallback ~fell_back () =
    finish ~used:Budgeted_chase ~fell_back
      (chase_arm ?pool ?guard ?max_depth ?max_atoms t d q)
  in
  match plan.strategy with
  | Ucq_rewriting -> (
      match rewriting_arm ?guard ?budget t d q with
      | tuples, true, stats ->
          finish ~used:Ucq_rewriting ~fell_back:false (tuples, true, stats)
      | _, false, stats ->
          record (strategy_name Ucq_rewriting) stats;
          chase_fallback ~fell_back:true ())
  | Marked_process k -> (
      match marked_arm ?guard ~levels:k d q with
      | Some ((_, true, _) as result) ->
          finish ~used:(Marked_process k) ~fell_back:false result
      | Some (_, false, stats) ->
          record (strategy_name (Marked_process k)) stats;
          chase_fallback ~fell_back:true ()
      | None -> chase_fallback ~fell_back:true ())
  | Terminating_chase ->
      finish ~used:Terminating_chase ~fell_back:false
        (chase_arm ?pool ?guard ?max_depth ?max_atoms t d q)
  | Budgeted_chase -> chase_fallback ~fell_back:false ()
