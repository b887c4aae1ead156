(* frontier — command-line front end.

   Subcommands:
     chase     run the semi-oblivious Skolem chase and print stages
     rewrite   compute the UCQ rewriting of a query
     answer    certain answers, via the chase and (if possible) rewriting
     classify  syntactic class report for a theory
     analyze   locality / distancing / termination probes on an instance
     portfolio class checkers + auto-strategy selection (and execution)
     fuzz      seeded differential fuzzing campaign across the engines *)

open Cmdliner

(* Exit codes: 0 = complete result; 2 = a resource budget (deadline, fuel,
   memory ceiling, Ctrl-C) tripped and a PARTIAL result was printed;
   3 = internal error (bad input, an unreadable @file, unknown variant,
   ...). *)
let exit_exhausted = 2
let exit_internal = 3

let read_source s =
  (* A value is either inline text or @file. *)
  if String.length s > 0 && s.[0] = '@' then (
    let path = String.sub s 1 (String.length s - 1) in
    let ic = open_in path in
    let n = in_channel_length ic in
    let content = really_input_string ic n in
    close_in ic;
    content)
  else s

let theory_arg =
  let doc = "Theory: inline rules or @file. Rules look like \
             'Human(y) -> exists z. Mother(y,z)', separated by '.' or \
             newlines." in
  Arg.(required & opt (some string) None & info [ "t"; "theory" ] ~doc)

let instance_arg =
  let doc = "Instance: inline facts or @file, e.g. 'Human(abel). E(a,b)'." in
  Arg.(required & opt (some string) None & info [ "d"; "instance" ] ~doc)

let query_arg =
  let doc = "Query: '(x,y) :- R(x,z), G(z,y)' or ':- E(x,x)' (boolean)." in
  Arg.(required & opt (some string) None & info [ "q"; "query" ] ~doc)

let depth_arg =
  let doc = "Maximum chase depth." in
  Arg.(value & opt int 20 & info [ "depth" ] ~doc)

let atoms_arg =
  let doc = "Maximum number of chase atoms." in
  Arg.(value & opt int 200_000 & info [ "max-atoms" ] ~doc)

let jobs_arg =
  let doc =
    "Number of OCaml domains for the parallel chase sweeps (1 = \
     sequential); the rewriting engines always run on one domain. Results \
     are identical for every value."
  in
  let env = Cmd.Env.info "FRONTIER_JOBS" in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~env ~doc)

let timeout_arg =
  let doc =
    "Wall-clock deadline in seconds (may be fractional). On expiry the \
     run stops at its next guard checkpoint, the partial result computed \
     so far is printed, and the exit code is 2."
  in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~doc)

let memory_arg =
  let doc =
    "Live-heap ceiling in megabytes, sampled via Gc.quick_stat at guard \
     checkpoints. Exceeding it stops the run with partial output and \
     exit code 2."
  in
  Arg.(value & opt (some int) None & info [ "max-memory-mb" ] ~doc)

let words_of_mb mb = mb * 1024 * 1024 / (Sys.word_size / 8)

(* One guard per invocation: deadline/memory flags plus a cancellation
   token flipped by Ctrl-C or SIGTERM, so an interrupted run still prints
   its partial result (and --stats) on the way out — and, when a
   checkpoint sink is active, the kernel's final save runs before exit,
   so a supervised orchestrator that SIGTERMs a pod gets a resumable
   snapshot. Both signals share the partial-output exit code 2. *)
let with_guard ~timeout ~max_memory_mb f =
  let cancel = Atomic.make false in
  let guard =
    Frontier.Guard.create ?deadline_s:timeout
      ?max_heap_words:(Option.map words_of_mb max_memory_mb)
      ~cancel ()
  in
  let handler = Sys.Signal_handle (fun _ -> Atomic.set cancel true) in
  let previous_int = Sys.signal Sys.sigint handler in
  let previous_term = Sys.signal Sys.sigterm handler in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigint previous_int;
      Sys.set_signal Sys.sigterm previous_term)
    (fun () -> f guard)

(* Report the guard verdict and translate it into the exit code. *)
let finish guard =
  match Frontier.Guard.status guard with
  | None -> ()
  | Some cause ->
      let p = Frontier.Guard.progress guard in
      Fmt.pr
        "guard: exhausted (%s) after %d checkpoints, %d fuel spent, %.3fs \
         elapsed%s — partial result above@."
        (Frontier.Guard.cause_to_string cause)
        p.Frontier.Guard.checkpoints p.Frontier.Guard.fuel_spent
        p.Frontier.Guard.elapsed_s
        (if p.Frontier.Guard.peak_heap_words > 0 then
           Printf.sprintf ", peak heap %d words"
             p.Frontier.Guard.peak_heap_words
         else "");
      exit exit_exhausted

let with_pool jobs f =
  (* Always a private pool — a [create 1] spawns no domains, and each
     run's busy accounting is its own. *)
  let pool = Frontier.Pool.create jobs in
  Fun.protect ~finally:(fun () -> Frontier.Pool.shutdown pool) (fun () ->
      f pool)

let parse_theory s = Frontier.Parse.theory (read_source s)
let parse_instance s = Frontier.Parse.instance (read_source s)
let parse_query s = Frontier.Parse.query (read_source s)

(* Engine telemetry for [--stats], one schema for every subcommand
   (chase, rewrite, answer): the process-wide tallies are sampled before
   the run and printed as deltas. bench tables rely on the lines being
   identical across paths — add new telemetry here, not in a command. *)
let engine_stats_before () =
  ( Frontier.Homomorphism.counters (),
    Frontier.Fact_set.counters (),
    Frontier.Pool.gate_counters (),
    Frontier.Eval.counters () )

let print_engine_stats (h0, f0, g0, e0) =
  let h1 = Frontier.Homomorphism.counters () in
  let f1 = Frontier.Fact_set.counters () in
  let g1 = Frontier.Pool.gate_counters () in
  let e1 = Frontier.Eval.counters () in
  Fmt.pr "compiled joins: %d searches / %d nodes / %d register ops / %d \
          solutions@."
    (h1.Frontier.Homomorphism.searches - h0.Frontier.Homomorphism.searches)
    (h1.Frontier.Homomorphism.nodes - h0.Frontier.Homomorphism.nodes)
    (h1.Frontier.Homomorphism.reg_ops - h0.Frontier.Homomorphism.reg_ops)
    (h1.Frontier.Homomorphism.solutions
    - h0.Frontier.Homomorphism.solutions);
  Fmt.pr "join index: %d posting probes / %d intersections@."
    (f1.Frontier.Fact_set.posting_probes
    - f0.Frontier.Fact_set.posting_probes)
    (f1.Frontier.Fact_set.posting_intersections
    - f0.Frontier.Fact_set.posting_intersections);
  Fmt.pr "index: +%d delta / %d rebuilt atoms@."
    (f1.Frontier.Fact_set.delta_atoms - f0.Frontier.Fact_set.delta_atoms)
    (f1.Frontier.Fact_set.built_atoms - f0.Frontier.Fact_set.built_atoms);
  Fmt.pr "plan layer: %d leapfrog plans / %d seeks / %d gallops / %d \
          tuples / %d views@."
    (e1.Frontier.Eval.plans - e0.Frontier.Eval.plans)
    (e1.Frontier.Eval.seeks - e0.Frontier.Eval.seeks)
    (e1.Frontier.Eval.gallops - e0.Frontier.Eval.gallops)
    (e1.Frontier.Eval.emitted - e0.Frontier.Eval.emitted)
    (f1.Frontier.Fact_set.views - f0.Frontier.Fact_set.views);
  Fmt.pr "fan-out gate: %d batches inline / %d fanned out@."
    (g1.Frontier.Pool.inline_batches - g0.Frontier.Pool.inline_batches)
    (g1.Frontier.Pool.fanout_batches - g0.Frontier.Pool.fanout_batches)

let handle f =
  try f () with
  | Frontier.Parse.Error msg ->
      Fmt.epr "parse error: %s@." msg;
      exit exit_internal
  | Invalid_argument msg | Sys_error msg ->
      Fmt.epr "error: %s@." msg;
      exit exit_internal

(* Durability flags, shared by chase / rewrite / marked-rewrite. *)
let checkpoint_dir_arg =
  let doc =
    "Write crash-safe snapshots of the saturation state into this \
     directory (created if missing). An interrupted run — crash, OOM \
     kill, SIGINT/SIGTERM, tripped guard — can then be continued with \
     'frontier resume'."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint-dir" ] ~doc)

let checkpoint_every_arg =
  let doc =
    "Snapshot at every N-th committed saturation round (subject to a \
     0.5s wall-clock throttle between writes)."
  in
  Arg.(value & opt int 1 & info [ "checkpoint-every" ] ~doc)

let make_sink dir every =
  Option.map (fun d -> Frontier.Checkpoint.sink ~every d) dir

let print_checkpoint_stats () =
  let c = Frontier.Checkpoint.counters () in
  if
    c.Frontier.Checkpoint.writes + c.Frontier.Checkpoint.write_failures
    + c.Frontier.Checkpoint.rejected_reads
    > 0
  then
    Fmt.pr
      "checkpoints: %d written (%d payload bytes), %d write failures, %d \
       rejected on read@."
      c.Frontier.Checkpoint.writes c.Frontier.Checkpoint.bytes_written
      c.Frontier.Checkpoint.write_failures
      c.Frontier.Checkpoint.rejected_reads

(* One report per engine result, shared by the command that starts a run
   and by [resume], so a resumed run prints what the original command
   prints. [es0] is the {!engine_stats_before} sample taken before the
   run; the [--stats] lines report the work done since then. [pool] is
   the run's private pool, so its busy times are this run's. *)
let print_chase_run ~stats ~pool es0 run =
  Fmt.pr "chase: %d stages%s%s@."
    (Frontier.Chase_engine.depth run)
    (if Frontier.Chase_engine.saturated run then " (saturated)" else "")
    (match Frontier.Chase_engine.interrupted run with
    | Some c -> " (interrupted: " ^ Frontier.Guard.cause_to_string c ^ ")"
    | None -> "");
  for i = 0 to Frontier.Chase_engine.depth run do
    Fmt.pr "stage %d: %d atoms@." i
      (Frontier.Fact_set.cardinal (Frontier.Chase_engine.stage run i))
  done;
  if stats then begin
    Fmt.pr "%a@." Frontier.Saturation.Stats.pp
      (Frontier.Chase_engine.kernel_stats run);
    Fmt.pr "pool: %d domain%s, busy %s s@." (Frontier.Pool.size pool)
      (if Frontier.Pool.size pool = 1 then "" else "s")
      (String.concat " "
         (Array.to_list
            (Array.map (Printf.sprintf "%.3f")
               (Frontier.Pool.busy_times pool))));
    print_engine_stats es0;
    print_checkpoint_stats ()
  end

let print_rewrite_result ~stats es0 (r : Frontier.Rewrite.result) =
  (match r.Frontier.Rewrite.outcome with
  | Frontier.Rewrite.Complete -> Fmt.pr "rewriting complete:@."
  | Frontier.Rewrite.Step_budget -> Fmt.pr "step budget exhausted; partial:@."
  | Frontier.Rewrite.Disjunct_budget ->
      Fmt.pr "disjunct budget exhausted; partial:@."
  | Frontier.Rewrite.Size_budget ->
      Fmt.pr "disjunct size budget exhausted; partial:@."
  | Frontier.Rewrite.Guard_exhausted cause ->
      Fmt.pr "guard exhausted (%s); partial:@."
        (Frontier.Guard.cause_to_string cause));
  Fmt.pr "%a@." Frontier.Ucq.pp r.Frontier.Rewrite.ucq;
  Fmt.pr
    "disjuncts: %d, max size: %d, steps: %d, generated: %d, containment \
     checks: %d, dedup hits: %d@."
    (Frontier.Ucq.cardinal r.Frontier.Rewrite.ucq)
    (Frontier.Ucq.max_disjunct_size r.Frontier.Rewrite.ucq)
    r.Frontier.Rewrite.steps r.Frontier.Rewrite.generated
    r.Frontier.Rewrite.containment_checks r.Frontier.Rewrite.dedup_hits;
  if stats then begin
    Fmt.pr "%a@." Frontier.Saturation.Stats.pp r.Frontier.Rewrite.kernel_stats;
    Fmt.pr
      "solver: %d candidate pairs pruned by the subsumption index, %d \
       containment searches split into components@."
      r.Frontier.Rewrite.index_pruned r.Frontier.Rewrite.component_splits;
    print_engine_stats es0;
    print_checkpoint_stats ()
  end

let print_marked_result ~stats (res : Frontier.Marked_process.result) =
  let st = res.Frontier.Marked_process.stats in
  Fmt.pr "%s after %d process steps (%d cut, %d fuse, %d reduce):@."
    (if res.Frontier.Marked_process.complete then "complete"
     else
       match res.Frontier.Marked_process.interrupted with
       | Some c -> "guard exhausted (" ^ Frontier.Guard.cause_to_string c ^ ")"
       | None -> "step budget exhausted")
    st.Frontier.Marked_process.steps st.Frontier.Marked_process.cut_steps
    st.Frontier.Marked_process.fuse_steps
    st.Frontier.Marked_process.reduce_steps;
  if stats then begin
    Fmt.pr "%a@." Frontier.Saturation.Stats.pp
      res.Frontier.Marked_process.kernel_stats;
    print_checkpoint_stats ()
  end;
  Fmt.pr "%a@." Frontier.Ucq.pp res.Frontier.Marked_process.rewriting;
  Fmt.pr "disjuncts: %d, max size: %d, trivial: %d, aliased: %d@."
    (Frontier.Ucq.cardinal res.Frontier.Marked_process.rewriting)
    (Frontier.Ucq.max_disjunct_size res.Frontier.Marked_process.rewriting)
    (List.length res.Frontier.Marked_process.trivial)
    (List.length res.Frontier.Marked_process.aliased)

(* ------------------------------------------------------------------ *)

let chase_cmd =
  let run theory instance depth max_atoms verbose variant dot_file jobs stats
      timeout max_memory_mb checkpoint_dir checkpoint_every =
    handle (fun () ->
        with_pool jobs (fun pool ->
        with_guard ~timeout ~max_memory_mb (fun guard ->
        let t = parse_theory theory in
        let d = parse_instance instance in
        let checkpoint = make_sink checkpoint_dir checkpoint_every in
        (match (checkpoint, variant) with
        | Some _, ("oblivious" | "restricted") ->
            Fmt.epr
              "note: --checkpoint-dir only applies to the semi-oblivious \
               variant; ignoring@."
        | _ -> ());
        let result_facts =
          match variant with
          | "semi-oblivious" ->
              let es0 = engine_stats_before () in
              let run =
                Frontier.Chase_engine.run ~pool ~guard ~max_depth:depth
                  ~max_atoms ?checkpoint t d
              in
              print_chase_run ~stats ~pool es0 run;
              Frontier.Chase_engine.result run
          | "oblivious" ->
              let r =
                Frontier.Chase_variants.run_oblivious ~pool ~guard
                  ~max_depth:depth ~max_atoms t d
              in
              Fmt.pr "oblivious chase: %d stages%s, %d atoms@."
                r.Frontier.Chase_variants.steps
                (if r.Frontier.Chase_variants.saturated then " (saturated)"
                 else "")
                (Frontier.Fact_set.cardinal r.Frontier.Chase_variants.facts);
              r.Frontier.Chase_variants.facts
          | "restricted" ->
              let r =
                Frontier.Chase_variants.run_restricted ~guard
                  ~max_applications:(depth * 100) ~max_atoms t d
              in
              Fmt.pr "restricted chase: %d applications%s, %d atoms@."
                r.Frontier.Chase_variants.steps
                (if r.Frontier.Chase_variants.saturated then
                   " (model reached)"
                 else "")
                (Frontier.Fact_set.cardinal r.Frontier.Chase_variants.facts);
              r.Frontier.Chase_variants.facts
          | other ->
              Fmt.epr "unknown chase variant %S@." other;
              exit exit_internal
        in
        (match dot_file with
        | Some path ->
            let oc = open_out path in
            output_string oc
              (Frontier.Render.to_dot
                 ~highlight:(Frontier.Fact_set.domain d)
                 result_facts);
            close_out oc;
            Fmt.pr "dot graph written to %s@." path
        | None -> ());
        if verbose then Fmt.pr "%a@." Frontier.Fact_set.pp result_facts;
        finish guard)))
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print all atoms.")
  in
  let variant =
    Arg.(
      value
      & opt string "semi-oblivious"
      & info [ "variant" ]
          ~doc:"Chase variant: semi-oblivious (default), oblivious,                 restricted.")
  in
  let dot_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~doc:"Write the result as a GraphViz dot file.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print per-stage work counters (triggers, derived atoms, wall \
             time), the run's per-domain busy time, plus the flat-arena engine \
             telemetry: arena size, compiled-join searches and register \
             ops, posting-list probes, and the parallel cost gate's \
             inline/fan-out batch split.")
  in
  Cmd.v
    (Cmd.info "chase" ~doc:"Run the chase (semi-oblivious by default)")
    Term.(
      const run $ theory_arg $ instance_arg $ depth_arg $ atoms_arg $ verbose
      $ variant $ dot_file $ jobs_arg $ stats $ timeout_arg $ memory_arg
      $ checkpoint_dir_arg $ checkpoint_every_arg)

let rewrite_cmd =
  let run theory query steps disjuncts stats timeout max_memory_mb
      checkpoint_dir checkpoint_every =
    handle (fun () ->
        with_guard ~timeout ~max_memory_mb (fun guard ->
        let t = parse_theory theory in
        let q = parse_query query in
        let budget =
          {
            Frontier.Rewrite.default_budget with
            Frontier.Rewrite.max_steps = steps;
            max_disjuncts = disjuncts;
          }
        in
        let checkpoint = make_sink checkpoint_dir checkpoint_every in
        let es0 = engine_stats_before () in
        let r = Frontier.Rewrite.rewrite ~guard ~budget ?checkpoint t q in
        print_rewrite_result ~stats es0 r;
        finish guard;
        (* Exhausted legacy budgets (no guard trip) also mean the printed
           UCQ is partial: keep the exit-code contract uniform. *)
        if r.Frontier.Rewrite.outcome <> Frontier.Rewrite.Complete then
          exit exit_exhausted))
  in
  let steps =
    Arg.(value & opt int 5_000 & info [ "steps" ] ~doc:"Rewriting step budget.")
  in
  let disjuncts =
    Arg.(value & opt int 2_000 & info [ "disjuncts" ] ~doc:"Disjunct budget.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print the saturation kernel's counters (rounds, frontier \
             expansions, admissions, dedups), the solver counters (pairs \
             pruned by the UCQ subsumption index, containment searches \
             decomposed into Gaifman components), and the flat-arena \
             engine telemetry: arena size, compiled-join searches and \
             register ops, posting-list probes, and the parallel cost \
             gate's inline/fan-out batch split.")
  in
  Cmd.v
    (Cmd.info "rewrite" ~doc:"Compute the UCQ rewriting of a query")
    Term.(
      const run $ theory_arg $ query_arg $ steps $ disjuncts $ stats
      $ timeout_arg $ memory_arg $ checkpoint_dir_arg
      $ checkpoint_every_arg)

(* The [answer] input: an explicit instance, or one of the seeded
   large-instance generators — the million-fact workloads the evaluation
   layer exists for. *)
let generated_instance ~gen ~gen_size ~gen_facts ~gen_seed ~gen_rels =
  let rels names =
    match
      String.split_on_char ',' names
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    with
    | [] -> invalid_arg "--gen-rels: need at least one relation name"
    | names -> List.map (fun n -> Frontier.Symbol.make n ~arity:2) names
  in
  match gen with
  | "grid" -> (
      match rels (Option.value ~default:"R,G" gen_rels) with
      | [ right; down ] ->
          Frontier.Instances.grid right down ~width:gen_size ~height:gen_size
      | _ -> invalid_arg "--gen grid: needs exactly two relations (right,down)")
  | "er" -> (
      match rels (Option.value ~default:"E" gen_rels) with
      | [ rel ] ->
          Frontier.Instances.erdos_renyi rel ~seed:gen_seed ~nodes:gen_size
            ~edges:gen_facts
      | _ -> invalid_arg "--gen er: needs exactly one relation")
  | "ba" -> (
      match rels (Option.value ~default:"E" gen_rels) with
      | [ rel ] ->
          Frontier.Instances.barabasi_albert rel ~seed:gen_seed
            ~nodes:gen_size
            ~m:(max 1 (gen_facts / max 1 gen_size))
      | _ -> invalid_arg "--gen ba: needs exactly one relation")
  | other -> invalid_arg ("unknown generator '" ^ other ^ "' (grid|er|ba)")

let answer_cmd =
  let run theory instance gen gen_size gen_facts gen_seed gen_rels query
      depth max_atoms jobs stats compare_engines timeout max_memory_mb =
    handle (fun () ->
        with_pool jobs (fun pool ->
        with_guard ~timeout ~max_memory_mb (fun guard ->
        let t = parse_theory theory in
        let d =
          match (instance, gen) with
          | Some s, None -> parse_instance s
          | None, Some g ->
              generated_instance ~gen:g ~gen_size ~gen_facts ~gen_seed
                ~gen_rels
          | Some _, Some _ ->
              invalid_arg "give either --instance or --gen, not both"
          | None, None -> invalid_arg "need an --instance or a --gen"
        in
        let q = parse_query query in
        Fmt.pr "instance: %d facts@." (Frontier.Fact_set.cardinal d);
        let es0 = engine_stats_before () in
        (* Strategy -> rewrite (or chase/marked) -> evaluate. *)
        let plan = Frontier.Portfolio.plan ~pool ~guard t in
        Fmt.pr "strategy: %a (%s)@." Frontier.Portfolio.Strategy.pp_strategy
          plan.Frontier.Portfolio.Strategy.strategy
          (String.concat "; " plan.Frontier.Portfolio.Strategy.reasons);
        let a =
          Frontier.Portfolio.execute ~pool ~guard ~max_depth:depth ~max_atoms
            plan t d q
        in
        Fmt.pr "%s answers (%d%s, via %s%s):@."
          (if a.Frontier.Portfolio.Strategy.exact then "certain" else "sound")
          (List.length a.Frontier.Portfolio.Strategy.tuples)
          (if a.Frontier.Portfolio.Strategy.exact then "" else ", partial")
          (Frontier.Portfolio.Strategy.strategy_name
             a.Frontier.Portfolio.Strategy.used)
          (if a.Frontier.Portfolio.Strategy.fell_back then ", after fallback"
           else "");
        let tuples = a.Frontier.Portfolio.Strategy.tuples in
        let shown = List.filteri (fun i _ -> i < 20) tuples in
        List.iter
          (fun tuple ->
            Fmt.pr "  (%a)@."
              (Fmt.list ~sep:(Fmt.any ", ") Frontier.Term.pp)
              tuple)
          shown;
        if List.length tuples > List.length shown then
          Fmt.pr "  ... (%d more)@." (List.length tuples - List.length shown);
        if compare_engines then begin
          let chase_tuples, saturated, _ =
            Frontier.Portfolio.Strategy.chase_arm ~pool ~guard
              ~max_depth:depth ~max_atoms t d q
          in
          Fmt.pr "chase-then-query (%d answers%s): %s@."
            (List.length chase_tuples)
            (if saturated then "" else ", unsaturated")
            (if
               Frontier.Portfolio.Strategy.equal_answers chase_tuples
                 (Frontier.Portfolio.Strategy.normalize_tuples tuples)
             then "agrees"
             else "DISAGREES")
        end;
        if stats then print_engine_stats es0;
        finish guard)))
  in
  let instance_opt =
    let doc = "Instance: inline facts or @file (alternative: --gen)." in
    Arg.(value & opt (some string) None & info [ "d"; "instance" ] ~doc)
  in
  let gen =
    let doc =
      "Generate the instance instead: 'grid' (gen-size x gen-size, \
       relations right,down), 'er' (Erdős–Rényi, gen-facts edges over \
       gen-size nodes) or 'ba' (Barabási–Albert preferential attachment, \
       ~gen-facts edges)."
    in
    Arg.(value & opt (some string) None & info [ "gen" ] ~doc)
  in
  let gen_size =
    Arg.(
      value & opt int 1000
      & info [ "gen-size" ]
          ~doc:"Nodes (er/ba) or side length (grid) of the generated \
                instance.")
  in
  let gen_facts =
    Arg.(
      value & opt int 1_000_000
      & info [ "gen-facts" ] ~doc:"Edge count of the generated instance \
                                   (er/ba).")
  in
  let gen_seed =
    Arg.(value & opt int 42 & info [ "gen-seed" ] ~doc:"Generator seed.")
  in
  let gen_rels =
    Arg.(
      value
      & opt (some string) None
      & info [ "gen-rels" ]
          ~doc:"Relation names for the generator, comma-separated \
                (defaults: 'R,G' for grid, 'E' for er/ba).")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print the engine telemetry (same schema as chase/rewrite \
             --stats), including the plan layer's leapfrog counters.")
  in
  let compare_engines =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:
            "Also compute chase-then-query answers and report whether \
             they agree with the strategy's result.")
  in
  Cmd.v
    (Cmd.info "answer"
       ~doc:
         "Certain answers end-to-end: strategy selection, rewriting (or \
          chase), then plan-layer evaluation over the instance")
    Term.(
      const run $ theory_arg $ instance_opt $ gen $ gen_size $ gen_facts
      $ gen_seed $ gen_rels $ query_arg $ depth_arg $ atoms_arg $ jobs_arg
      $ stats $ compare_engines $ timeout_arg $ memory_arg)

let explain_cmd =
  let run theory instance query tuple depth max_atoms =
    handle (fun () ->
        let t = parse_theory theory in
        let d = parse_instance instance in
        let q = parse_query query in
        let answer =
          match tuple with
          | None -> []
          | Some s ->
              String.split_on_char ',' s
              |> List.map String.trim
              |> List.filter (fun x -> x <> "")
              |> List.map Frontier.Term.const
        in
        let run = Frontier.Chase_engine.run ~max_depth:depth ~max_atoms t d in
        match Frontier.Explain.explain run q answer with
        | Some expl ->
            Fmt.pr "%a@." Frontier.Explain.pp expl;
            Fmt.pr "support is sufficient: %b@."
              (Frontier.Explain.support_is_sufficient ~max_depth:depth run
                 expl q answer)
        | None ->
            Fmt.pr
              "not entailed within the chase budget (depth %d)@." depth)
  in
  let tuple =
    Arg.(
      value
      & opt (some string) None
      & info [ "a"; "answers" ]
          ~doc:"Answer tuple: comma-separated constants, e.g. 'abel,eve'.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Why is the query entailed? Derivation trees and fact support")
    Term.(
      const run $ theory_arg $ instance_arg $ query_arg $ tuple $ depth_arg
      $ atoms_arg)

let marked_rewrite_cmd =
  let run query levels steps stats timeout max_memory_mb checkpoint_dir
      checkpoint_every =
    handle (fun () ->
        with_guard ~timeout ~max_memory_mb (fun guard ->
        let q = parse_query (read_source query) in
        let checkpoint = make_sink checkpoint_dir checkpoint_every in
        let res =
          if levels = 2 then
            Frontier.Marked_process.rewrite_td ~guard ~max_steps:steps
              ?checkpoint q
          else
            Frontier.Marked_process.rewrite_tdk ~guard ~max_steps:steps
              ?checkpoint levels q
        in
        print_marked_result ~stats res;
        finish guard;
        if not res.Frontier.Marked_process.complete then exit exit_exhausted))
  in
  let levels =
    Arg.(
      value & opt int 2
      & info [ "K"; "levels" ]
          ~doc:"Signature levels: 2 = T_d over R/G (default); K > 2 uses                 I1..IK (T_d^K).")
  in
  let steps =
    Arg.(
      value & opt int 200_000
      & info [ "steps" ] ~doc:"Process step budget.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print the saturation kernel's counters (process steps, \
             operation results produced, live queries enqueued).")
  in
  Cmd.v
    (Cmd.info "marked-rewrite"
       ~doc:
         "Rewrite a query under T_d (or T_d^K) with the marked-query           process of Sections 10-12")
    Term.(
      const run $ query_arg $ levels $ steps $ stats $ timeout_arg
      $ memory_arg $ checkpoint_dir_arg $ checkpoint_every_arg)

let resume_cmd =
  let run dir jobs stats timeout max_memory_mb max_attempts checkpoint_every
      =
    handle (fun () ->
        with_pool jobs (fun pool ->
        with_guard ~timeout ~max_memory_mb (fun guard ->
        if Frontier.Checkpoint.Snapshot.list ~dir = [] then begin
          Fmt.epr "resume: no snapshots in %s@." dir;
          exit exit_internal
        end;
        (* The resumed run keeps checkpointing into the same directory, so
           each supervised attempt that makes progress shrinks the replay
           the next attempt has to do. *)
        let sink = Frontier.Checkpoint.sink ~every:checkpoint_every dir in
        let es0 = engine_stats_before () in
        let outcome, report =
          Frontier.Checkpoint.Supervisor.run ~max_attempts
            ~on_event:(fun line -> Fmt.epr "supervisor: %s@." line)
            ~dir
            (fun ~resume ->
              match resume with
              | None ->
                  invalid_arg
                    "every snapshot in the directory was rejected \
                     (checksum/version); cold start needs the original \
                     chase/rewrite/marked-rewrite invocation"
              | Some snap ->
                  let kind = snap.Frontier.Checkpoint.Snapshot.kind in
                  if kind = Frontier.Chase_engine.checkpoint_kind then
                    `Chase
                      (Frontier.Chase_engine.resume ~pool ~guard
                         ~checkpoint:sink snap)
                  else if kind = Frontier.Rewrite.checkpoint_kind then
                    `Rewrite
                      (Frontier.Rewrite.resume ~guard ~checkpoint:sink snap)
                  else if kind = Frontier.Marked_process.checkpoint_kind
                  then
                    `Marked
                      (Frontier.Marked_process.resume ~guard
                         ~checkpoint:sink snap)
                  else
                    invalid_arg
                      (Printf.sprintf "unknown snapshot kind %S" kind))
        in
        if stats then begin
          Fmt.pr
            "supervisor: %d attempt%s, resumed from round %s, %d rejected \
             snapshot%s, %d cold start%s, %.2fs backoff@."
            report.Frontier.Checkpoint.Supervisor.attempts
            (if report.Frontier.Checkpoint.Supervisor.attempts = 1 then ""
             else "s")
            (match
               report.Frontier.Checkpoint.Supervisor.resumed_round
             with
            | Some r -> string_of_int r
            | None -> "<cold>")
            report.Frontier.Checkpoint.Supervisor.rejected_snapshots
            (if
               report.Frontier.Checkpoint.Supervisor.rejected_snapshots = 1
             then ""
             else "s")
            report.Frontier.Checkpoint.Supervisor.cold_starts
            (if report.Frontier.Checkpoint.Supervisor.cold_starts = 1 then
               ""
             else "s")
            report.Frontier.Checkpoint.Supervisor.slept_s
        end;
        match outcome with
        | Error e ->
            Fmt.epr "resume failed: %s@." (Printexc.to_string e);
            exit exit_internal
        | Ok (`Chase run) ->
            print_chase_run ~stats ~pool es0 run;
            finish guard
        | Ok (`Rewrite r) ->
            print_rewrite_result ~stats es0 r;
            finish guard;
            if r.Frontier.Rewrite.outcome <> Frontier.Rewrite.Complete then
              exit exit_exhausted
        | Ok (`Marked res) ->
            print_marked_result ~stats res;
            finish guard;
            if not res.Frontier.Marked_process.complete then
              exit exit_exhausted)))
  in
  let dir =
    let doc = "Snapshot directory written by --checkpoint-dir." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)
  in
  let max_attempts =
    Arg.(
      value & opt int 3
      & info [ "max-attempts" ]
          ~doc:
            "Supervised retries: on a failed attempt, back off \
             exponentially, re-read the snapshot directory, and resume \
             from the newest valid snapshot.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print the supervisor report (attempts, resumed round, \
             rejected snapshots, backoff) plus the --stats report of the \
             command that started the run.")
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Continue an interrupted chase / rewrite / marked-rewrite run \
          from its newest valid snapshot, with supervised retries and \
          degradation to older snapshots on corruption")
    Term.(
      const run $ dir $ jobs_arg $ stats $ timeout_arg $ memory_arg
      $ max_attempts $ checkpoint_every_arg)

let classify_cmd =
  let run theory =
    handle (fun () ->
        let t = parse_theory theory in
        Fmt.pr "%a@." Frontier.Classes.pp_report (Frontier.classify t))
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Syntactic class report")
    Term.(const run $ theory_arg)

let analyze_cmd =
  let run theory instance depth max_l timeout max_memory_mb =
    handle (fun () ->
        with_guard ~timeout ~max_memory_mb (fun guard ->
        let t = parse_theory theory in
        let d = parse_instance instance in
        (match Frontier.Locality.min_constant ~depth t d ~max_l with
        | Some l -> Fmt.pr "locality: no defect at l = %d on this instance@." l
        | None ->
            Fmt.pr "locality: defects persist up to l = %d on this instance@."
              max_l);
        let run = Frontier.Chase_engine.run ~max_depth:depth t d in
        (match Frontier.Distancing.max_contraction run with
        | Some (p, ratio) ->
            Fmt.pr "distancing: max contraction %.3f (pair %a, %a)@." ratio
              Frontier.Term.pp p.Frontier.Distancing.a Frontier.Term.pp
              p.Frontier.Distancing.b
        | None -> Fmt.pr "distancing: no connected pair@.");
        (match
           Frontier.Termination.core_terminates_on ~guard ~max_c:depth t d
         with
        | Frontier.Termination.Holds c ->
            Fmt.pr "core termination: model inside stage %d@." c
        | Frontier.Termination.Budget_exhausted ->
            Fmt.pr "core termination: no model found within budget@.");
        finish guard))
  in
  let max_l =
    Arg.(value & opt int 4 & info [ "max-l" ] ~doc:"Locality constant bound.")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Locality / distancing / termination probes")
    Term.(
      const run $ theory_arg $ instance_arg $ depth_arg $ max_l $ timeout_arg
      $ memory_arg)

let portfolio_cmd =
  let run theory instance query probe stats jobs timeout max_memory_mb =
    handle (fun () ->
        with_pool jobs (fun pool ->
        with_guard ~timeout ~max_memory_mb (fun guard ->
        let t = parse_theory theory in
        let plan = Frontier.Portfolio.plan ~pool ~guard ~probe t in
        Fmt.pr "strategy: %a (%s)@."
          Frontier.Portfolio.Strategy.pp_strategy
          plan.Frontier.Portfolio.Strategy.strategy
          (String.concat "; " plan.Frontier.Portfolio.Strategy.reasons);
        Fmt.pr "%a"
          Frontier.Portfolio.Checkers.pp_report
          plan.Frontier.Portfolio.Strategy.report;
        if stats then
          List.iter
            (fun (name, seconds) ->
              Fmt.pr "checker %-16s %.6fs@." name seconds)
            plan.Frontier.Portfolio.Strategy.report
              .Frontier.Portfolio.Checkers.timings;
        (match (instance, query) with
        | Some instance, Some query ->
            let d = parse_instance instance and q = parse_query query in
            let a = Frontier.Portfolio.execute ~pool ~guard plan t d q in
            Fmt.pr "answers via %s%s (%s, %d tuples):@."
              (Frontier.Portfolio.Strategy.strategy_name
                 a.Frontier.Portfolio.Strategy.used)
              (if a.Frontier.Portfolio.Strategy.fell_back then
                 " [fell back]"
               else "")
              (if a.Frontier.Portfolio.Strategy.exact then "exact"
               else "sound but possibly incomplete")
              (List.length a.Frontier.Portfolio.Strategy.tuples);
            List.iter
              (fun tuple ->
                Fmt.pr "  (%a)@."
                  (Fmt.list ~sep:(Fmt.any ", ") Frontier.Term.pp)
                  tuple)
              a.Frontier.Portfolio.Strategy.tuples;
            if stats then
              List.iter
                (fun (name, kernel) ->
                  Fmt.pr "engine %s:@.%a@." name
                    Frontier.Saturation.Stats.pp kernel)
                a.Frontier.Portfolio.Strategy.attempts
        | Some _, None | None, Some _ ->
            Fmt.epr
              "portfolio: --instance and --query must be given together@.";
            exit exit_internal
        | None, None -> ());
        finish guard)))
  in
  let instance_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "d"; "instance" ]
          ~doc:
            "Optional instance (with --query): execute the selected \
             strategy and print the certain answers.")
  in
  let query_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "q"; "query" ]
          ~doc:"Optional query (with --instance); see the answer command.")
  in
  let probe =
    Arg.(
      value & flag
      & info [ "probe" ]
          ~doc:
            "Also run the empirical BDD probe (atomic-query rewritings + \
             uniform-bound series over random instances). Costs chases \
             and rewritings; off by default.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print per-checker wall-clock timings and, when executing, \
             each attempted engine's saturation-kernel counters.")
  in
  Cmd.v
    (Cmd.info "portfolio"
       ~doc:
         "Classify a theory with the portfolio checkers and select (or \
          run) the cheapest sound strategy")
    Term.(
      const run $ theory_arg $ instance_opt $ query_opt $ probe $ stats
      $ jobs_arg $ timeout_arg $ memory_arg)

let fuzz_cmd =
  let run seed count dir stats jobs timeout max_memory_mb =
    handle (fun () ->
        with_pool jobs (fun pool ->
        with_guard ~timeout ~max_memory_mb (fun guard ->
        let outcome =
          Frontier.Portfolio.Fuzz.campaign ~pool ~guard ?dir ~seed ~count ()
        in
        Fmt.pr "%a" Frontier.Portfolio.Fuzz.pp_outcome outcome;
        if stats then
          List.iter
            (fun f ->
              List.iter
                (fun a ->
                  Fmt.pr "  sample %d arm %s: %s, %d answers@."
                    f.Frontier.Portfolio.Fuzz.sample
                      .Frontier.Portfolio.Fuzz.index
                    a.Frontier.Portfolio.Fuzz.arm
                    (if a.Frontier.Portfolio.Fuzz.exact then "exact"
                     else "inexact")
                    (List.length a.Frontier.Portfolio.Fuzz.answers))
                f.Frontier.Portfolio.Fuzz.arms)
            outcome.Frontier.Portfolio.Fuzz.failures;
        finish guard;
        if outcome.Frontier.Portfolio.Fuzz.failures <> [] then exit 1)))
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~doc:"Campaign seed; samples are deterministic in it.")
  in
  let count =
    Arg.(value & opt int 200 & info [ "count" ] ~doc:"Number of samples.")
  in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ]
          ~doc:
            "Directory for minimized .repro counterexamples (created if \
             missing). Without it failures are only reported.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print per-arm answers for each failure.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: run every applicable engine on seeded \
          random theories, cross-check certain answers, and minimize any \
          disagreement to a .repro file (exit 1)")
    Term.(
      const run $ seed $ count $ dir $ stats $ jobs_arg $ timeout_arg
      $ memory_arg)

let () =
  (* FRONTIER_FAULTS=<seed> turns on deterministic fault injection for the
     whole process — the replayable chaos knob the CI fault matrix uses. *)
  Frontier.Guard.Faults.install (Frontier.Guard.Faults.from_env ());
  let info =
    Cmd.info "frontier" ~version:"1.0.0"
      ~doc:
        "Query rewritability toolkit: chase, UCQ rewriting, and the \
         frontier analyzers from 'A Journey to the Frontiers of Query \
         Rewritability' (PODS 2022)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ chase_cmd; rewrite_cmd; marked_rewrite_cmd; resume_cmd;
            answer_cmd; explain_cmd; classify_cmd; analyze_cmd;
            portfolio_cmd; fuzz_cmd ]))
