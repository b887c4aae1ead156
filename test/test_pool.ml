(* Unit tests for the domain pool: the fan-out paths (batches smaller
   than the pool, task errors, exactly-once claims), the busy-time
   accounting under concurrent readers and in a chase, and the rewriting
   engines' ignored [?pool]. The cross-scheduling determinism properties
   live in test_properties.ml; these tests pin the mechanisms. *)

open Parallel

(* These tests pin the fan-out mechanisms themselves (claiming, busy
   accounting). The cost gate would route their deliberately tiny
   batches inline — always on a one-core box — so they run on
   [Pool.Internal.create_fanout] pools, which fan out every batch. *)
let pool4 = Pool.Internal.create_fanout 4
let map_array = Pool.map_array

(* Which domains ran a batch's tasks. [task f] records the running
   domain, and until a second domain has shown up (or [timeout_s] has
   passed since [spread] was made) it waits before running [f]: a
   fanned-out batch then provably runs on several domains even on one
   core, while a batch that ran inline stays on one domain and costs at
   most [timeout_s]. *)
let spread ?(timeout_s = 5.) () =
  let seen = Atomic.make [] in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec add id =
    let ids = Atomic.get seen in
    if not (List.mem id ids || Atomic.compare_and_set seen ids (id :: ids))
    then add id
  in
  let task f x =
    add (Domain.self ());
    while
      List.length (Atomic.get seen) < 2 && Unix.gettimeofday () < deadline
    do
      Unix.sleepf 1e-4
    done;
    f x
  in
  let domains () = List.length (Atomic.get seen) in
  (task, domains)

let check_fanned_out what domains =
  if domains () < 2 then
    Alcotest.failf "%s ran inline on one domain; want a fan-out" what

(* ------------------------------------------------------------------ *)
(* Map correctness                                                     *)
(* ------------------------------------------------------------------ *)

let test_map_matches_sequential () =
  (* Sizes below the worker count leave some workers without a task. *)
  List.iter
    (fun n ->
      let tasks = Array.init n (fun i -> i) in
      let expected = Array.map (fun i -> (i * i) + 1) tasks in
      (* A single task never leaves the coordinator: nothing to wait for. *)
      let task, domains = spread ~timeout_s:(if n >= 2 then 5. else 0.) () in
      let got = map_array pool4 (task (fun i -> (i * i) + 1)) tasks in
      Alcotest.(check (array int))
        (Printf.sprintf "n=%d" n)
        expected got;
      if n >= 2 then check_fanned_out (Printf.sprintf "n=%d" n) domains)
    [ 0; 1; 2; 3; 5; 16; 1000 ]

let test_lowest_failure_reraised () =
  (* Tasks 5, 8, 11, ... fail. Every task still runs once, and the
     exception that surfaces is task 5's — the one [Array.map] raises —
     whichever domain ran it. *)
  let pool1 = Pool.create 1 and pool2 = Pool.Internal.create_fanout 2 in
  List.iter
    (fun pool ->
      let n = 40 in
      let size = Pool.size pool in
      let runs = Array.init n (fun _ -> Atomic.make 0) in
      (* A size-1 pool runs inline: nothing to wait for. *)
      let task, domains = spread ~timeout_s:(if size > 1 then 5. else 0.) () in
      let f i =
        Atomic.incr runs.(i);
        if i >= 5 && i mod 3 = 2 then failwith (string_of_int i) else i
      in
      (match map_array pool (task f) (Array.init n Fun.id) with
      | _ -> Alcotest.failf "size %d: expected a task failure" size
      | exception Failure msg ->
          Alcotest.(check string)
            (Printf.sprintf "size %d: lowest failing index" size)
            "5" msg);
      Array.iteri
        (fun i c ->
          Alcotest.(check int)
            (Printf.sprintf "size %d: index %d runs" size i)
            1 (Atomic.get c))
        runs;
      if size > 1 then check_fanned_out (Printf.sprintf "size %d" size) domains)
    [ pool1; pool2; pool4 ];
  Pool.shutdown pool2

(* ------------------------------------------------------------------ *)
(* Exactly-once claims                                                 *)
(* ------------------------------------------------------------------ *)

let test_exactly_once () =
  (* Equal results cannot tell a double run from a single one, so each
     task counts its own executions. *)
  List.iter
    (fun n ->
      let runs = Array.init n (fun _ -> Atomic.make 0) in
      let task, domains = spread () in
      ignore
        (map_array pool4
           (task (fun i -> Atomic.incr runs.(i)))
           (Array.init n Fun.id));
      Array.iteri
        (fun i c ->
          Alcotest.(check int)
            (Printf.sprintf "n=%d: index %d runs" n i)
            1 (Atomic.get c))
        runs;
      check_fanned_out (Printf.sprintf "n=%d" n) domains)
    [ 2; 5; 1000 ]

(* ------------------------------------------------------------------ *)
(* Busy accounting under a concurrent reader                           *)
(* ------------------------------------------------------------------ *)

let test_busy_times_concurrent_reader () =
  Pool.reset_busy pool4;
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let reads = ref 0 in
        while not (Atomic.get stop) do
          let b = Pool.busy_times pool4 in
          assert (Array.length b = Pool.size pool4);
          Array.iter (fun t -> assert (t >= 0.)) b;
          incr reads
        done;
        !reads)
  in
  let tasks = Array.init 2_000 (fun i -> i) in
  for _ = 1 to 5 do
    ignore (map_array pool4 (fun i -> i + 1) tasks)
  done;
  Atomic.set stop true;
  let reads = Domain.join reader in
  Alcotest.(check bool) "reader made progress" true (reads > 0);
  let busy = Pool.busy_times pool4 in
  Alcotest.(check int) "one slot per worker" (Pool.size pool4)
    (Array.length busy);
  Array.iter
    (fun t ->
      Alcotest.(check bool) "busy time is finite and non-negative" true
        (Float.is_finite t && t >= 0.))
    busy

let test_sequential_branch_busy () =
  (* The size-1 inline branch takes the same mutex as the workers; a
     private pool starts from a clean slate, so the accumulated busy
     time reflects only its own runs. *)
  let p = Pool.create 1 in
  let before = (Pool.busy_times p).(0) in
  Alcotest.(check (float 0.)) "fresh pool starts at zero" 0. before;
  ignore (Pool.map_array p (fun i -> i) (Array.init 100 Fun.id));
  let after = (Pool.busy_times p).(0) in
  Alcotest.(check bool) "inline run accumulates busy time" true
    (after >= 0.)

let test_chase_busy_on_worker () =
  (* The chase is the pool's client: its sweeps on a fan-out pool must
     put work on worker 1, not only on the coordinator. *)
  let pool = Pool.Internal.create_fanout 2 in
  let _, _, grid = Theories.Instances.path Theories.Zoo.g2 8 in
  ignore
    (Chase.Engine.run ~pool ~max_depth:6 ~max_atoms:400_000 Theories.Zoo.t_d
       grid);
  let busy = Pool.busy_times pool in
  Pool.shutdown pool;
  Alcotest.(check bool)
    (Printf.sprintf "worker 1 busy %.6f s > 0" busy.(1))
    true
    (busy.(1) > 0.)

(* ------------------------------------------------------------------ *)
(* The rewriting engines take no pool                                  *)
(* ------------------------------------------------------------------ *)

(* [Rewrite.rewrite] and [Marked.Process.rewrite_td] keep an optional
   [?pool] that they ignore: handing them a 4-domain pool must neither
   reach the cost gate nor change the result, counters included. *)
let test_rewriting_engines_ignore_pool () =
  let pool = Pool.create 4 in
  let sorted_keys u =
    List.sort compare (List.map Logic.Cq.iso_key (Logic.Ucq.disjuncts u))
  in
  let kernel (k : Saturation.Stats.t) =
    (k.Saturation.Stats.rounds, k.Saturation.Stats.totals)
  in
  let without_gate what f =
    let g0 = Pool.gate_counters () in
    let r = f () in
    let g1 = Pool.gate_counters () in
    Alcotest.(check (pair int int))
      (what ^ ": gate counters unchanged")
      (g0.Pool.inline_batches, g0.Pool.fanout_batches)
      (g1.Pool.inline_batches, g1.Pool.fanout_batches);
    r
  in
  let module R = Rewriting.Rewrite in
  List.iter
    (fun n ->
      let _, _, q = Theories.Zoo.e_path_query n in
      let run ?pool () = R.rewrite ?pool Theories.Zoo.t_loopcut q in
      let plain = run () in
      let pooled =
        without_gate (Printf.sprintf "rewrite E^%d" n) (fun () -> run ~pool ())
      in
      let stats r =
        ( (r.R.outcome = R.Complete, r.R.steps, r.R.generated),
          (r.R.containment_checks, r.R.dedup_hits),
          (r.R.index_pruned, r.R.component_splits),
          kernel r.R.kernel_stats )
      in
      Alcotest.(check (list string))
        (Printf.sprintf "rewrite E^%d: same UCQ" n)
        (sorted_keys plain.R.ucq) (sorted_keys pooled.R.ucq);
      Alcotest.(check bool)
        (Printf.sprintf "rewrite E^%d: same stats" n)
        true
        (stats plain = stats pooled))
    [ 7; 8; 9; 10; 11 ];
  let module P = Marked.Process in
  let _, _, phi = Theories.Zoo.phi_r 3 in
  let plain = P.rewrite_td phi in
  let pooled =
    without_gate "marked phi_R^3" (fun () -> P.rewrite_td ~pool phi)
  in
  let stats r =
    ( (r.P.complete, r.P.stats),
      (List.length r.P.aliased, List.length r.P.trivial),
      kernel r.P.kernel_stats )
  in
  Alcotest.(check (list string))
    "marked phi_R^3: same UCQ" (sorted_keys plain.P.rewriting)
    (sorted_keys pooled.P.rewriting);
  Alcotest.(check bool)
    "marked phi_R^3: same stats" true
    (stats plain = stats pooled);
  Pool.shutdown pool

let () =
  Alcotest.run "pool"
    [
      (* The "steal" names predate the single claim cursor (there are no
         shards to steal from any more); they stay so test ids are stable. *)
      ( "steal",
        [
          Alcotest.test_case "map = sequential map (incl. empty victims)"
            `Quick test_map_matches_sequential;
          Alcotest.test_case
            "map_array re-raises the lowest failing index's exception, the \
             same one at pool sizes 1/2/4"
            `Quick test_lowest_failure_reraised;
          Alcotest.test_case "every index runs exactly once" `Quick
            test_exactly_once;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "busy_times under a concurrent reader" `Quick
            test_busy_times_concurrent_reader;
          Alcotest.test_case "size-1 pool accounts inline runs" `Quick
            test_sequential_branch_busy;
          Alcotest.test_case "a fan-out chase keeps worker 1 busy" `Quick
            test_chase_busy_on_worker;
        ] );
      ( "clients",
        [
          Alcotest.test_case "rewriting engines ignore the pool" `Quick
            test_rewriting_engines_ignore_pool;
        ] );
    ]
