(* Unit tests for the sharded work-stealing pool: the pure scheduler
   internals (shard slicing, probe order), the steal paths (empty
   victims, dead workers), the busy-time accounting under concurrent
   readers, the [FRONTIER_JOBS] plumbing, and the rewriting engines'
   ignored [?pool]. The cross-scheduling determinism properties live in
   test_properties.ml; these tests pin the mechanisms. *)

open Parallel

(* These tests pin the fan-out mechanisms themselves (stealing, dead
   workers, busy accounting). The cost gate would route their
   deliberately tiny batches inline — always on a one-core box — so they
   go through [Pool.Internal]'s forced fan-out entry point, which
   bypasses the gate for that one batch. *)
let pool4 = Pool.create 4
let map_array = Pool.Internal.map_array_fanout

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

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Pure scheduler internals                                            *)
(* ------------------------------------------------------------------ *)

let test_shard_bounds_partition () =
  List.iter
    (fun (n, size) ->
      let bounds = Pool.Internal.shard_bounds ~n ~size in
      Alcotest.(check int)
        (Printf.sprintf "n=%d size=%d: one shard per worker" n size)
        size (Array.length bounds);
      (* Contiguous cover of [0, n): each shard starts where the previous
         ended, the first starts at 0, the last ends at n. *)
      let expected_lo = ref 0 in
      Array.iter
        (fun (lo, hi) ->
          Alcotest.(check int) "contiguous" !expected_lo lo;
          Alcotest.(check bool) "non-negative width" true (hi >= lo);
          expected_lo := hi)
        bounds;
      Alcotest.(check int) "covers [0, n)" n !expected_lo;
      (* Balance: widths differ by at most one, larger shards first. *)
      let widths = Array.to_list (Array.map (fun (lo, hi) -> hi - lo) bounds) in
      let wmin = List.fold_left min n widths
      and wmax = List.fold_left max 0 widths in
      Alcotest.(check bool)
        (Printf.sprintf "balanced (widths %d..%d)" wmin wmax)
        true
        (wmax - wmin <= 1))
    [
      (0, 1); (0, 4); (1, 4); (3, 4); (4, 4); (5, 4); (7, 3); (100, 1);
      (100, 4); (101, 4); (103, 4); (17, 16);
    ]

let test_probe_order () =
  List.iter
    (fun (worker, shards) ->
      let order = Pool.Internal.probe_order ~worker ~shards in
      Alcotest.(check int) "visits every shard" shards (List.length order);
      Alcotest.(check (option int))
        "own shard first" (Some worker)
        (match order with k :: _ -> Some k | [] -> None);
      (* Each shard exactly once: no self-steal, no double visit. *)
      Alcotest.(check (list int))
        "a permutation of 0..shards-1" (List.init shards Fun.id)
        (List.sort Int.compare order))
    [ (0, 1); (0, 4); (1, 4); (3, 4); (2, 7) ]

(* ------------------------------------------------------------------ *)
(* Map correctness, including empty-victim steals                      *)
(* ------------------------------------------------------------------ *)

let test_map_matches_sequential () =
  (* Sizes below the worker count leave some shards empty from the
     start, so finishing the job requires probing empty victims. *)
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

let test_task_errors_lists_failing_indices () =
  let tasks = Array.init 20 (fun i -> i) in
  match
    map_array pool4
      (fun i -> if i mod 3 = 0 then failwith "boom" else i)
      tasks
  with
  | _ -> Alcotest.fail "expected Task_errors"
  | exception Pool.Task_errors errors ->
      Alcotest.(check (list int))
        "exactly the deterministic failures"
        [ 0; 3; 6; 9; 12; 15; 18 ]
        (List.map (fun (i, _, _) -> i) errors)

(* ------------------------------------------------------------------ *)
(* Dead-worker steal-rescue                                            *)
(* ------------------------------------------------------------------ *)

let test_dead_worker_rescue () =
  (* Pick a fault schedule that kills workers (any seed whose derived
     schedule has an active death period). Worker deaths abandon one
     claimed index each — the coordinator rescues those — while the
     dead worker's remaining shard must be stolen by the survivors; the
     result has to come out identical to the sequential map anyway. *)
  let die_seed =
    let rec find s =
      if s > 10_000 then Alcotest.fail "no die-active fault seed found"
      else if
        contains_sub
          (Guard.Faults.describe (Guard.Faults.of_seed s))
          "worker death"
      then s
      else find (s + 1)
    in
    find 1
  in
  Fun.protect
    ~finally:(fun () -> Guard.Faults.install Guard.Faults.none)
    (fun () ->
      Guard.Faults.install (Guard.Faults.of_seed die_seed);
      let tasks = Array.init 500 (fun i -> i) in
      let task, domains = spread () in
      let got = map_array pool4 (task (fun i -> i * 7)) tasks in
      Alcotest.(check (array int))
        "all indices survive worker deaths"
        (Array.map (fun i -> i * 7) tasks)
        got;
      check_fanned_out "the fault-injected batch" domains)

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

(* ------------------------------------------------------------------ *)
(* FRONTIER_JOBS parsing                                               *)
(* ------------------------------------------------------------------ *)

let test_jobs_from_env () =
  let with_env v f =
    let prev = Sys.getenv_opt "FRONTIER_JOBS" in
    Unix.putenv "FRONTIER_JOBS" v;
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "FRONTIER_JOBS"
          (match prev with Some s -> s | None -> ""))
      f
  in
  (* An empty value is not an integer: warns and falls back to 1, which
     also makes the save/restore above safe when the variable was unset
     ([putenv ""] is the closest OCaml gets to unsetting). *)
  List.iter
    (fun (v, expected) ->
      with_env v (fun () ->
          Alcotest.(check int)
            (Printf.sprintf "FRONTIER_JOBS=%S" v)
            expected (Pool.jobs_from_env ())))
    [
      ("3", 3); (" 4 ", 4); ("1", 1); ("0", 1); ("-2", 1); ("abc", 1);
      ("", 1);
    ]

(* ------------------------------------------------------------------ *)
(* The rewriting engines take no pool                                  *)
(* ------------------------------------------------------------------ *)

(* [Rewrite.rewrite] and [Marked.Process.rewrite_td] keep an optional
   [?pool] that they ignore: handing them a 4-domain pool must neither
   reach the cost gate nor change the result. The containment memo is
   emptied before each run so the memo-dependent counters compare too. *)
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
      let run ?pool () =
        Logic.Containment.reset_memo ();
        R.rewrite ?pool Theories.Zoo.t_loopcut q
      in
      let plain = run () in
      let pooled =
        without_gate (Printf.sprintf "rewrite E^%d" n) (fun () -> run ~pool ())
      in
      let stats r =
        ( (r.R.outcome = R.Complete, r.R.steps, r.R.generated),
          (r.R.containment_checks, r.R.cache_hits, r.R.cache_misses),
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
      ( "scheduler",
        [
          Alcotest.test_case "shard bounds partition [0, n)" `Quick
            test_shard_bounds_partition;
          Alcotest.test_case "probe order: own shard first, no self-steal"
            `Quick test_probe_order;
        ] );
      ( "steal",
        [
          Alcotest.test_case "map = sequential map (incl. empty victims)"
            `Quick test_map_matches_sequential;
          Alcotest.test_case "Task_errors lists the failing indices" `Quick
            test_task_errors_lists_failing_indices;
          Alcotest.test_case "dead worker: orphan rescued, shard stolen"
            `Quick test_dead_worker_rescue;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "busy_times under a concurrent reader" `Quick
            test_busy_times_concurrent_reader;
          Alcotest.test_case "size-1 pool accounts inline runs" `Quick
            test_sequential_branch_busy;
        ] );
      ( "config",
        [
          Alcotest.test_case "FRONTIER_JOBS parsing and warnings" `Quick
            test_jobs_from_env;
        ] );
      ( "clients",
        [
          Alcotest.test_case "rewriting engines ignore the pool" `Quick
            test_rewriting_engines_ignore_pool;
        ] );
    ]
