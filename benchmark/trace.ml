(* Spans recorded by the benchmark around its calls into the library.

   A span has a name, the op it belongs to, its parent span, monotonic
   start and end times, and the deltas of [Gc.quick_stat] and of every
   public process-wide library counter read at its two boundaries. Spans
   stay in memory and are written out once, when the child exits. The
   untraced path passes [None] and pays nothing. *)

open Logic

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* The public counters, read in this order into one int array. *)
let counter_names =
  [|
    "eval.plans"; "eval.seeks"; "eval.gallops"; "eval.emitted";
    "containment.memo_hits"; "containment.memo_misses"; "containment.splits";
    "containment.prescreened"; "ucq_index.pairs"; "ucq_index.pruned";
    "homomorphism.searches"; "homomorphism.nodes"; "homomorphism.reg_ops";
    "homomorphism.solutions"; "fact_set.builds"; "fact_set.extends";
    "fact_set.delta_atoms"; "fact_set.posting_probes";
    "fact_set.posting_intersections"; "pool.inline_batches";
    "pool.fanout_batches";
  |]

let read_counters () =
  let e = Eval.counters () in
  let m = Containment.memo_stats () in
  let s = Containment.solver_stats () in
  let u = Ucq_index.stats () in
  let h = Homomorphism.counters () in
  let f = Fact_set.counters () in
  let g = Parallel.Pool.gate_counters () in
  [|
    e.plans; e.seeks; e.gallops; e.emitted; m.hits; m.misses; s.splits;
    s.prescreened; u.pairs; u.pruned; h.searches; h.nodes; h.reg_ops;
    h.solutions; f.builds; f.extends; f.delta_atoms; f.posting_probes;
    f.posting_intersections; g.inline_batches; g.fanout_batches;
  |]

let gc_names =
  [| "gc.minor_collections"; "gc.major_collections"; "gc.minor_mwords";
     "gc.promoted_mwords" |]

let read_gc () =
  let s = Gc.quick_stat () in
  [|
    float_of_int s.minor_collections; float_of_int s.major_collections;
    s.minor_words /. 1e6; s.promoted_words /. 1e6;
  |]

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  op : int;  (** -1 during set-up *)
  name : string;
  start : float;
  stop : float;
  gc : float array;  (** indexed like [gc_names] *)
  counters : int array;  (** indexed like [counter_names] *)
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable stack : int list;
  mutable op : int;
  notes : (string, float) Hashtbl.t;
}

let create () =
  { spans = []; next_id = 0; stack = []; op = -1; notes = Hashtbl.create 32 }

let set_op t op = t.op <- op

let span tr name f =
  match tr with
  | None -> f ()
  | Some t ->
      let id = t.next_id in
      t.next_id <- id + 1;
      let parent = match t.stack with p :: _ -> p | [] -> -1 in
      t.stack <- id :: t.stack;
      let c0 = read_counters () in
      let g0 = read_gc () in
      let start = now () in
      let finish () =
        let stop = now () in
        let g1 = read_gc () in
        let c1 = read_counters () in
        t.stack <- List.tl t.stack;
        t.spans <-
          {
            id; parent; op = t.op; name; start; stop;
            gc = Array.map2 ( -. ) g1 g0;
            counters = Array.map2 ( - ) c1 c0;
          }
          :: t.spans
      in
      Fun.protect ~finally:finish f

(* Add [v] to the named per-layer quantity (results the library returns,
   such as rewriting steps or chase stage counts). *)
let note tr name v =
  match tr with
  | None -> ()
  | Some t ->
      let old = Option.value ~default:0. (Hashtbl.find_opt t.notes name) in
      Hashtbl.replace t.notes name (old +. v)

let notei tr name v = note tr name (float_of_int v)

let duration s = s.stop -. s.start
let spans t = List.rev t.spans
let roots t = List.filter (fun s -> s.parent < 0 && s.op >= 0) (spans t)

(* Time of each span not covered by its children. *)
let self_times t =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let old = Option.value ~default:0. (Hashtbl.find_opt child_time s.parent) in
        Hashtbl.replace child_time s.parent (old +. duration s))
    t.spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id)))
    (spans t)

(* Share of the op spans' wall time covered by their child spans. *)
let coverage t =
  let total = List.fold_left (fun acc s -> acc +. duration s) 0. (roots t) in
  let self =
    List.fold_left
      (fun acc (s, self) -> if s.parent < 0 && s.op >= 0 then acc +. self else acc)
      0. (self_times t)
  in
  if total > 0. then 1. -. (self /. total) else 0.

type summary_row = {
  row_name : string;
  count : int;
  total_s : float;
  self_s : float;
  row_gc : float array;
}

(* One row per span name, in order of first appearance. *)
let summary t =
  let rows = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun (s, self) ->
      let r =
        match Hashtbl.find_opt rows s.name with
        | Some r -> r
        | None ->
            order := s.name :: !order;
            { row_name = s.name; count = 0; total_s = 0.; self_s = 0.;
              row_gc = Array.make (Array.length gc_names) 0. }
      in
      Hashtbl.replace rows s.name
        {
          r with
          count = r.count + 1;
          total_s = r.total_s +. duration s;
          self_s = r.self_s +. self;
          row_gc = Array.map2 ( +. ) r.row_gc s.gc;
        })
    (self_times t);
  List.rev_map (Hashtbl.find rows) !order

(* {1 Per-layer metrics} *)

let sum_by f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

let ratio a b = if b > 0. then a /. b else 0.

(* The per-layer metrics of one traced child, as (name, unit, value), in
   the order and with the names BENCHMARK.json lists. Counter and GC
   figures are summed over the op spans only, so set-up and the output
   checks never leak in. *)
let layer_metrics t ~pool_busy_s ~pool_size =
  let ops = roots t in
  let counter name =
    let rec index i = if counter_names.(i) = name then i else index (i + 1) in
    let i = index 0 in
    sum_by (fun s -> float_of_int s.counters.(i)) ops
  in
  let gc i = sum_by (fun s -> s.gc.(i)) ops in
  let span_s name =
    sum_by (fun s -> if s.name = name then duration s else 0.) (spans t)
  in
  let note name = Option.value ~default:0. (Hashtbl.find_opt t.notes name) in
  let op_wall = sum_by duration ops in
  let answers = note "eval.answers" in
  let memo_hits = counter "containment.memo_hits" in
  let memo_checks = memo_hits +. counter "containment.memo_misses" in
  let arena = Arena.stats Arena.global in
  [
    ("parser.parse_s", "s", span_s "parser.parse");
    ("rewriting.rewrite_s", "s", span_s "rewriting.rewrite");
    ("portfolio.normalize_s", "s", span_s "portfolio.normalize");
    ("eval.ucq_answers_s", "s", span_s "eval.ucq_answers");
    ("eval.plans", "count", counter "eval.plans");
    ("eval.seeks", "count", counter "eval.seeks");
    ("eval.gallops", "count", counter "eval.gallops");
    ("eval.emitted", "count", counter "eval.emitted");
    ("eval.answers", "count", answers);
    ("eval.seeks_per_answer", "ratio", ratio (counter "eval.seeks") answers);
    ("eval.dedup_ratio", "ratio", ratio answers (counter "eval.emitted"));
    ("rewriting.steps", "count", note "rewriting.steps");
    ("rewriting.generated", "count", note "rewriting.generated");
    ("rewriting.disjuncts", "count", note "rewriting.disjuncts");
    ("rewriting.admit_ratio", "ratio",
     ratio (note "rewriting.admitted") (note "rewriting.generated"));
    ("containment.checks", "count", memo_checks);
    ("containment.memo_hit_ratio", "ratio", ratio memo_hits memo_checks);
    ("containment.splits", "count", counter "containment.splits");
    ("containment.prescreened", "count", counter "containment.prescreened");
    ("ucq_index.pairs", "count", counter "ucq_index.pairs");
    ("ucq_index.prune_ratio", "ratio",
     ratio (counter "ucq_index.pruned") (counter "ucq_index.pairs"));
    ("marked.rewrite_s", "s", span_s "marked.rewrite");
    ("marked.steps", "count", note "marked.steps");
    ("marked.cut_steps", "count", note "marked.cut_steps");
    ("marked.fuse_steps", "count", note "marked.fuse_steps");
    ("marked.reduce_steps", "count", note "marked.reduce_steps");
    ("marked.drop_ratio", "ratio",
     ratio (note "marked.dropped") (note "marked.generated"));
    ("saturation.rounds", "count", note "saturation.rounds");
    ("saturation.expanded", "count", note "saturation.expanded");
    ("saturation.generated", "count", note "saturation.generated");
    ("saturation.admitted", "count", note "saturation.admitted");
    ("saturation.deduped", "count", note "saturation.deduped");
    ("chase.run_s", "s", span_s "chase.run");
    ("chase.stages", "count", note "chase.stages");
    ("chase.atoms", "count", note "chase.atoms");
    ("chase.triggers", "count", note "chase.triggers");
    ("chase.fresh_ratio", "ratio", ratio (note "chase.fresh") (note "chase.produced"));
    ("chase.stage_max_s", "s", note "chase.stage_max_s");
    ("fact_set.extends", "count", counter "fact_set.extends");
    ("fact_set.delta_atoms", "count", counter "fact_set.delta_atoms");
    ("fact_set.builds", "count", counter "fact_set.builds");
    ("fact_set.posting_probes", "count", counter "fact_set.posting_probes");
    ("fact_set.posting_intersections", "count", counter "fact_set.posting_intersections");
    ("homomorphism.searches", "count", counter "homomorphism.searches");
    ("homomorphism.nodes", "count", counter "homomorphism.nodes");
    ("homomorphism.reg_ops", "count", counter "homomorphism.reg_ops");
    ("homomorphism.solutions", "count", counter "homomorphism.solutions");
    ("arena.spans", "count", float_of_int arena.spans);
    ("arena.mb", "MB", float_of_int arena.bytes /. 1048576.);
    ("pool.inline_batches", "count", counter "pool.inline_batches");
    ("pool.fanout_batches", "count", counter "pool.fanout_batches");
    ("pool.busy_s", "s", pool_busy_s);
    ("pool.idle_s", "s", Float.max 0. ((float_of_int pool_size *. op_wall) -. pool_busy_s));
    ("theories.instance_s", "s", span_s "theories.instance");
    ("portfolio.plan_s", "s", span_s "portfolio.plan");
    ("gc.minor_collections", "count", gc 0);
    ("gc.major_collections", "count", gc 1);
    ("gc.minor_mwords", "Mwords", gc 2);
    ("gc.promoted_mwords", "Mwords", gc 3);
    ("trace.coverage", "ratio", coverage t);
  ]

(* {1 The trace file} *)

(* Every digit a float parsed from a nanosecond timer carries. *)
let json_float f = if Float.is_finite f then Printf.sprintf "%.15g" f else "0"

let write_file t path ~workload ~seed =
  let oc = open_out path in
  let t0 = match spans t with s :: _ -> s.start | [] -> 0. in
  Printf.fprintf oc "{\"workload\": %S, \"seed\": %d, \"spans\": [" workload seed;
  List.iteri
    (fun i s ->
      let fields names values =
        String.concat ", "
          (List.filter_map Fun.id
             (Array.to_list
                (Array.mapi
                   (fun j name ->
                     if values.(j) = 0. then None
                     else Some (Printf.sprintf "%S: %s" name (json_float values.(j))))
                   names)))
      in
      Printf.fprintf oc
        "%s\n  {\"id\": %d, \"parent\": %d, \"op\": %d, \"name\": %S, \
         \"start_s\": %s, \"end_s\": %s, \"gc\": {%s}, \"counters\": {%s}}"
        (if i = 0 then "" else ",")
        s.id s.parent s.op s.name
        (json_float (s.start -. t0))
        (json_float (s.stop -. t0))
        (fields gc_names s.gc)
        (fields counter_names (Array.map float_of_int s.counters)))
    (spans t);
  output_string oc "\n]}\n";
  close_out oc
