(* The five workloads: their inputs, made from the seed by the benchmark
   itself, and their ops, each a timed call into the library's public API
   followed by an untimed check of what it returned. *)

open Logic

type size = Full | Smoke

type inputs =
  | Answers of {
      theory : Theory.t;
      plan : Portfolio.Strategy.plan;
      instances : Fact_set.t array;
      queries : (int * string) array;  (** instance index, query text *)
    }
  | Marked of { n : int; phi : Cq.t }
  | Loopcut of (int * Cq.t) list  (** path length, [E^n] query *)
  | Chase of { depths : int list; ends : Term.t * Term.t; instance : Fact_set.t }

type outcome = {
  ok : bool;  (** exact, no fallback, and the expected shape of output *)
  size : int;  (** answer tuples, disjuncts or chase atoms *)
  digest : string;  (** independent of output order and variable names *)
}

type op = { label : string; run : Trace.t option -> unit -> outcome }
(** [op.run tr] makes the timed call and returns the check of its output,
    which the caller runs after stopping the clock. *)

type t = {
  name : string;
  seeded : bool;  (** whether the inputs depend on [--seed] *)
  jobs : int;  (** domains in the pool handed to the library *)
  setup : size -> seed:int -> Trace.t option -> inputs;
}

(* {1 Output digests} *)

let digest_lines lines =
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare lines)))

let term_text (t : Term.t) =
  match t.Term.view with Term.Const s -> s | _ -> Fmt.str "%a" Term.pp t

let digest_tuples tuples =
  digest_lines (List.map (fun tu -> String.concat "," (List.map term_text tu)) tuples)

let digest_ucq u = digest_lines (List.map Cq.iso_key (Ucq.disjuncts u))
let ucq_outcome ~ok u = { ok; size = Ucq.cardinal u; digest = digest_ucq u }

let marked_outcome (r : Marked.Process.result) = ucq_outcome ~ok:r.complete r.rewriting

let loopcut_outcome n (r : Rewriting.Rewrite.result) =
  ucq_outcome ~ok:(r.outcome = Rewriting.Rewrite.Complete && Ucq.cardinal r.ucq = n) r.ucq

let chase_outcome depth r =
  let sizes =
    List.init (depth + 1) (fun i -> Fact_set.cardinal (Chase.Engine.stage r i))
  in
  {
    ok = Chase.Engine.depth r = depth && Chase.Engine.interrupted r = None;
    size = Fact_set.cardinal (Chase.Engine.result r);
    digest = digest_lines (List.mapi (Printf.sprintf "%d:%d") sizes);
  }

(* {1 Per-layer notes taken from library results} *)

let note_kernel tr (s : Saturation.Stats.t) =
  Trace.notei tr "saturation.rounds" s.rounds;
  Trace.notei tr "saturation.expanded" s.totals.expanded;
  Trace.notei tr "saturation.generated" s.totals.generated;
  Trace.notei tr "saturation.admitted" s.totals.admitted;
  Trace.notei tr "saturation.deduped" s.totals.deduped

let note_rewrite tr (r : Rewriting.Rewrite.result) =
  Trace.notei tr "rewriting.steps" r.steps;
  Trace.notei tr "rewriting.generated" r.generated;
  Trace.notei tr "rewriting.admitted" r.kernel_stats.totals.admitted;
  Trace.notei tr "rewriting.disjuncts" (Ucq.cardinal r.ucq);
  note_kernel tr r.kernel_stats

(* {1 answer-grid and answer-tenants} *)

let answer_op ~pool ~theory ~plan instance text =
  let run tr =
    let tuples, ok, rewrite =
      match tr with
      | None ->
          let a = Portfolio.execute ~pool plan theory instance (Parser.parse_query text) in
          ( a.tuples,
            a.exact && (not a.fell_back) && a.used = Portfolio.Ucq_rewriting,
            None )
      | Some _ -> (
          (* The calls [Strategy.rewriting_arm] makes, one span each. *)
          let q = Trace.span tr "parser.parse" (fun () -> Parser.parse_query text) in
          let r =
            Trace.span tr "rewriting.rewrite" (fun () ->
                Rewriting.Rewrite.rewrite ~pool theory q)
          in
          if r.outcome <> Rewriting.Rewrite.Complete then ([], false, Some r)
          else
            match
              Trace.span tr "eval.ucq_answers" (fun () ->
                  Eval.ucq_answers_outcome r.ucq instance)
            with
            | Guard.Complete ts ->
                ( Trace.span tr "portfolio.normalize" (fun () ->
                      Portfolio.Strategy.normalize_tuples ts),
                  true,
                  Some r )
            | Guard.Exhausted _ -> ([], false, Some r))
    in
    fun () ->
      Option.iter (note_rewrite tr) rewrite;
      Trace.notei tr "eval.answers" (List.length tuples);
      { ok; size = List.length tuples; digest = digest_tuples tuples }
  in
  { label = text; run }

(* Fisher-Yates, drawing from the seed's state. *)
let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Every E/G relation string of [k] atoms with every answer position. *)
let grid_templates k =
  let rec strings k =
    if k = 0 then [ [] ]
    else List.concat_map (fun s -> [ "E" :: s; "G" :: s ]) (strings (k - 1))
  in
  Array.of_list (List.concat_map (fun rels -> List.init k (fun a -> (rels, a + 1))) (strings k))

(* [per_length] point queries of each length 1-3, each length split
   evenly over its templates (2, 8 and 24 of them), anchored at random
   grid nodes, in a shuffled order, with unanchored two-atom scans spread
   evenly between them. Every seed gets the same mix of shapes, so the
   seed moves the anchors and the order, not the amount of work. (Four
   length-3 templates get a plan that starts from an unanchored variable
   and run 20-60x slower; they are 5.5% of the ops, clear of the p90.) *)
let grid_queries st ~side ~per_length ~scans =
  let point (rels, answer) =
    let row = Random.State.int st side in
    let col = Random.State.int st side in
    let anchor = Printf.sprintf "\"g%d_%d\"" row col in
    let atoms =
      List.mapi
        (fun a r ->
          let src = if a = 0 then anchor else Printf.sprintf "x%d" a in
          Printf.sprintf "%s(%s, x%d)" r src (a + 1))
        rels
    in
    Printf.sprintf "(x%d) :- %s" answer (String.concat ", " atoms)
  in
  let templates =
    List.concat_map
      (fun k ->
        let t = grid_templates k in
        List.init (per_length / Array.length t) (fun _ -> t))
      [ 1; 2; 3 ]
  in
  let points = Array.map point (shuffle st (Array.concat templates)) in
  let scan_pairs = shuffle st [| ("E", "E"); ("E", "G"); ("G", "E"); ("G", "G") |] in
  let scan i =
    let r1, r2 = scan_pairs.(i) in
    Printf.sprintf "(x0, x2) :- %s(x0, x1), %s(x1, x2)" r1 r2
  in
  let every = Array.length points / scans in
  let ops =
    List.concat
      (List.init (Array.length points) (fun i ->
           let k = (i + 1) / every in
           points.(i) :: (if (i + 1) mod every = 0 && k <= scans then [ scan (k - 1) ] else [])))
  in
  Array.of_list (List.map (fun q -> (0, q)) ops)

(* The tenants' theory and query templates are part of the workload, not
   of the seed: random linear theories differ several-fold in rewriting
   size, and random query sets in join cost, which would swamp the
   run-to-run spread. The seed draws the instances, shuffles the queries
   and so decides which tenant gets which. *)
let tenant_theory_seed = 1

(* Connected 2-3 atom CQs over L0..L3 with random relations and edge
   directions; the shapes cycle (2-path, 3-path, triangle, 2-cycle).
   One answer variable: the rewriter rejects piece unifiers that make two
   answer variables equal, so with two of them the portfolio would report
   exact answers that miss tuples such as (c, c). *)
let tenant_templates count =
  let st = Random.State.make [| tenant_theory_seed; 3 |] in
  let edge (a, b) =
    let r = Printf.sprintf "L%d" (Random.State.int st 4) in
    if Random.State.bool st then Printf.sprintf "%s(x%d, x%d)" r a b
    else Printf.sprintf "%s(x%d, x%d)" r b a
  in
  Array.init count (fun i ->
      let edges =
        match i mod 4 with
        | 0 -> [ (0, 1); (1, 2) ]
        | 1 -> [ (0, 1); (1, 2); (2, 3) ]
        | 2 -> [ (0, 1); (1, 2); (2, 0) ]
        | _ -> [ (0, 1); (1, 0) ]
      in
      let atoms = List.map edge edges in
      Printf.sprintf "(x0) :- %s" (String.concat ", " atoms))

let tenant_queries st ~tenants ~count =
  Array.mapi (fun i q -> (i mod tenants, q)) (shuffle st (tenant_templates count))

let plan_for tr theory =
  Trace.span tr "portfolio.plan" (fun () -> Portfolio.plan theory)

let expect_rewriting (plan : Portfolio.Strategy.plan) =
  if plan.strategy <> Portfolio.Ucq_rewriting then
    failwith "the portfolio no longer routes this theory to UCQ rewriting"

let answer_grid =
  let setup size ~seed tr =
    let side, per_length, scans =
      match size with Full -> (300, 96, 4) | Smoke -> (20, 24, 2)
    in
    let grid, queries =
      Trace.span tr "theories.instance" (fun () ->
          let grid =
            Theories.Instances.grid Theories.Zoo.e2 Theories.Zoo.g2 ~width:side
              ~height:side
          in
          let st = Random.State.make [| seed; 1 |] in
          (grid, grid_queries st ~side ~per_length ~scans))
    in
    let plan = plan_for tr Theories.Zoo.t_p in
    expect_rewriting plan;
    Answers { theory = Theories.Zoo.t_p; plan; instances = [| grid |]; queries }
  in
  { name = "answer-grid"; seeded = true; jobs = 1; setup }

let answer_tenants =
  let setup size ~seed tr =
    let tenants = 6 in
    let facts, count = match size with Full -> (20_000, 100) | Smoke -> (600, 24) in
    let theory =
      Theories.Generators.random_linear_binary ~seed:tenant_theory_seed ~rels:4
        ~rules:8
    in
    let instances, queries =
      Trace.span tr "theories.instance" (fun () ->
          let instances =
            Array.init tenants (fun t ->
                Theories.Generators.random_instance_for
                  ~seed:((seed * 1000) + t)
                  theory ~nodes:(facts / 5) ~facts)
          in
          let st = Random.State.make [| seed; 2 |] in
          (instances, tenant_queries st ~tenants ~count))
    in
    let plan = plan_for tr theory in
    expect_rewriting plan;
    Answers { theory; plan; instances; queries }
  in
  { name = "answer-tenants"; seeded = true; jobs = 1; setup }

(* {1 rewrite-marked, rewrite-loopcut, chase-td} *)

let rewrite_marked =
  let setup size ~seed:_ tr =
    let n = match size with Full -> 5 | Smoke -> 3 in
    let phi =
      Trace.span tr "theories.instance" (fun () ->
          let _, _, phi = Theories.Zoo.phi_r n in
          phi)
    in
    ignore (plan_for tr Theories.Zoo.t_d);
    Marked { n; phi }
  in
  { name = "rewrite-marked"; seeded = false; jobs = 1; setup }

let rewrite_loopcut =
  let setup size ~seed:_ tr =
    let lo, hi = match size with Full -> (7, 11) | Smoke -> (3, 5) in
    let queries =
      Trace.span tr "theories.instance" (fun () ->
          List.init (hi - lo + 1) (fun i ->
              let _, _, q = Theories.Zoo.e_path_query (lo + i) in
              (lo + i, q)))
    in
    ignore (plan_for tr Theories.Zoo.t_loopcut);
    Loopcut queries
  in
  { name = "rewrite-loopcut"; seeded = false; jobs = 1; setup }

(* A deepening session, one chase per depth, the way a user looks for the
   depth at which a query holds: three ops of clearly different cost, so
   op_p50_ms is the middle chase and op_p90_ms the deepest. *)
let chase_td =
  let setup size ~seed:_ tr =
    let depths = match size with Full -> [ 6; 7; 8 ] | Smoke -> [ 5; 6; 7 ] in
    let a0, a8, instance =
      Trace.span tr "theories.instance" (fun () ->
          Theories.Instances.path Theories.Zoo.g2 8)
    in
    ignore (plan_for tr Theories.Zoo.t_d);
    Chase { depths; ends = (a0, a8); instance }
  in
  {
    name = "chase-td";
    seeded = false;
    jobs = min 2 (Domain.recommended_domain_count ());
    setup;
  }

let all = [ answer_grid; answer_tenants; rewrite_marked; rewrite_loopcut; chase_td ]
let find name = List.find_opt (fun w -> w.name = name) all

(* The chase budget: generous enough that only [max_depth] stops it. *)
let chase_max_atoms = 50_000_000

let ops inputs pool =
  match inputs with
  | Answers { theory; plan; instances; queries } ->
      Array.map
        (fun (i, text) -> answer_op ~pool ~theory ~plan instances.(i) text)
        queries
  | Marked { n; phi } ->
      let run tr =
        let r =
          Trace.span tr "marked.rewrite" (fun () ->
              Marked.Process.rewrite_td ~pool phi)
        in
        fun () ->
          let s = r.stats in
          Trace.notei tr "marked.steps" s.steps;
          Trace.notei tr "marked.cut_steps" s.cut_steps;
          Trace.notei tr "marked.fuse_steps" s.fuse_steps;
          Trace.notei tr "marked.reduce_steps" s.reduce_steps;
          Trace.notei tr "marked.dropped" (s.dropped_improper + s.dropped_unsat);
          Trace.notei tr "marked.generated" r.kernel_stats.totals.generated;
          note_kernel tr r.kernel_stats;
          marked_outcome r
      in
      [| { label = Printf.sprintf "phi_R^%d" n; run } |]
  | Loopcut queries ->
      Array.of_list
        (List.map
           (fun (n, q) ->
             let run tr =
               let r =
                 Trace.span tr "rewriting.rewrite" (fun () ->
                     Rewriting.Rewrite.rewrite ~pool Theories.Zoo.t_loopcut q)
               in
               fun () ->
                 note_rewrite tr r;
                 loopcut_outcome n r
             in
             { label = Printf.sprintf "E^%d" n; run })
           queries)
  | Chase { depths; instance; _ } ->
      let op depth =
        let run tr =
          let r =
            Trace.span tr "chase.run" (fun () ->
                Chase.Engine.run ~pool ~max_depth:depth ~max_atoms:chase_max_atoms
                  Theories.Zoo.t_d instance)
          in
          fun () ->
            let k = Chase.Engine.kernel_stats r in
            note_kernel tr k;
            Trace.notei tr "chase.stages" (Chase.Engine.depth r);
            Trace.notei tr "chase.atoms" (Fact_set.cardinal (Chase.Engine.result r));
            Trace.notei tr "chase.triggers" k.totals.expanded;
            Trace.notei tr "chase.fresh" k.totals.admitted;
            Trace.notei tr "chase.produced" k.totals.generated;
            Trace.note tr "chase.stage_max_s"
              (Array.fold_left
                 (fun acc (s : Saturation.Stats.round) -> Float.max acc s.wall_s)
                 0. (Chase.Engine.stage_stats r));
            chase_outcome depth r
        in
        { label = Printf.sprintf "G^8 depth %d" depth; run }
      in
      Array.of_list (List.map op depths)

(* {1 Goldens}

   One line per op: index, output size, digest and label, tab-separated.
   Seed-independent workloads have one golden per size; seeded ones have
   one per size and seed, and only seed 42 is committed. *)

let golden_path ~root w size ~seed =
  Filename.concat (Filename.concat root "goldens")
    (Printf.sprintf "%s%s%s.txt" w.name
       (if w.seeded then Printf.sprintf "-%d" seed else "")
       (match size with Full -> "" | Smoke -> "-smoke"))

let golden_line i (label, o) = Printf.sprintf "%d\t%d\t%s\t%s" i o.size o.digest label

let read_golden path =
  if not (Sys.file_exists path) then None
  else
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
          close_in ic;
          Array.of_list (List.rev acc)
    in
    Some (go [])

let write_golden path lines =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc
