(* Unit tests for the sharded work-stealing pool: the pure scheduler
   internals (shard slicing, probe order), the steal paths (empty
   victims, dead workers), the [exists] early exit, the busy-time
   accounting under concurrent readers, and the [FRONTIER_JOBS]
   plumbing. The cross-scheduling determinism properties live in
   test_properties.ml; these tests pin the mechanisms. *)

open Parallel

(* These tests pin the fan-out mechanisms themselves (stealing, dead
   workers, busy accounting). The cost gate would route their
   deliberately tiny batches inline — always on a one-core box — so they
   go through [Pool.Internal]'s forced fan-out entry points, which
   bypass the gate for that one batch. *)
let pool4 = Pool.create 4
let map_array = Pool.Internal.map_array_fanout
let exists = Pool.Internal.exists_fanout

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
(* [exists]: genuine early exit                                        *)
(* ------------------------------------------------------------------ *)

let test_exists_verdicts () =
  let tasks = Array.init 100 (fun i -> i) in
  Alcotest.(check bool)
    "witness present" true
    (exists pool4 (fun i -> i = 73) tasks);
  Alcotest.(check bool)
    "no witness" false
    (exists pool4 (fun i -> i > 1000) tasks);
  Alcotest.(check bool)
    "empty array" false
    (exists pool4 (fun _ -> true) [||])

let test_exists_early_exit () =
  (* Put a witness at the first index of every shard: whichever domain
     gets scheduled first finds one on its very first claim, so no
     domain ever invokes the predicate on a second task — the
     invocation count is bounded by the pool size, not the task count. *)
  let n = 10_000 in
  let size = Pool.size pool4 in
  let starts =
    Array.to_list
      (Array.map fst (Pool.Internal.shard_bounds ~n ~size))
  in
  let tasks = Array.init n (fun i -> i) in
  let invocations = Atomic.make 0 in
  let task, domains = spread () in
  let found =
    exists pool4
      (task (fun i ->
           Atomic.incr invocations;
           List.mem i starts))
      tasks
  in
  Alcotest.(check bool) "found" true found;
  check_fanned_out "the early-exit batch" domains;
  let inv = Atomic.get invocations in
  if inv > size then
    Alcotest.failf
      "predicate ran %d times for %d tasks (want <= pool size %d)" inv n
      size

let test_exists_no_witness_runs_all () =
  let n = 200 in
  let invocations = Atomic.make 0 in
  let task, domains = spread () in
  let found =
    exists pool4
      (task (fun _ ->
           Atomic.incr invocations;
           false))
      (Array.init n (fun i -> i))
  in
  Alcotest.(check bool) "not found" false found;
  Alcotest.(check int) "every task checked" n (Atomic.get invocations);
  check_fanned_out "the no-witness batch" domains

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
      ( "exists",
        [
          Alcotest.test_case "verdicts" `Quick test_exists_verdicts;
          Alcotest.test_case "early exit skips the tail" `Quick
            test_exists_early_exit;
          Alcotest.test_case "no witness checks everything" `Quick
            test_exists_no_witness_runs_all;
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
    ]
