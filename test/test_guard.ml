(* Unit tests for the resource governor (lib/guard) and its integration
   with the chase: trip causes, stickiness, counters, the outcome
   combinator, fault-schedule determinism, and — the promptness
   contract — a 1 ms deadline on an exponential chase returning in well
   under a second. *)

open Logic

let cause =
  Alcotest.testable Guard.pp_cause (fun a b ->
      Guard.cause_to_string a = Guard.cause_to_string b)

let cause_opt = Alcotest.option cause

(* ------------------------------------------------------------------ *)
(* Trip causes                                                         *)
(* ------------------------------------------------------------------ *)

let test_fuel_trip () =
  let g = Guard.create ~fuel:5 () in
  Alcotest.check cause_opt "within budget" None (Guard.spend g 3);
  Alcotest.check cause_opt "balance goes negative" (Some Guard.Fuel)
    (Guard.spend g 3);
  Alcotest.check cause_opt "sticky on check" (Some Guard.Fuel) (Guard.check g);
  Alcotest.check cause_opt "sticky on status" (Some Guard.Fuel)
    (Guard.status g);
  let p = Guard.progress g in
  Alcotest.(check int) "fuel accounted" 6 p.Guard.fuel_spent

let test_deadline_trip () =
  let g = Guard.create ~deadline_s:0.001 () in
  Unix.sleepf 0.01;
  Alcotest.check cause_opt "deadline passed" (Some Guard.Deadline)
    (Guard.check g);
  Alcotest.check cause_opt "spend also reports it" (Some Guard.Deadline)
    (Guard.spend g 1)

let test_memory_trip () =
  (* A one-word ceiling: the very first checkpoint samples the heap and
     trips. *)
  let g = Guard.create ~max_heap_words:1 () in
  Alcotest.check cause_opt "first checkpoint samples and trips"
    (Some Guard.Memory) (Guard.check g);
  let p = Guard.progress g in
  Alcotest.(check bool) "peak heap recorded" true (p.Guard.peak_heap_words > 0)

let test_cancellation () =
  let token = Atomic.make false in
  let g = Guard.create ~cancel:token () in
  Alcotest.check cause_opt "not yet" None (Guard.check g);
  Atomic.set token true;
  Alcotest.check cause_opt "external flip observed" (Some Guard.Cancelled)
    (Guard.check g);
  let g' = Guard.unlimited () in
  Guard.cancel g';
  Alcotest.(check bool) "cancelled" true (Guard.cancelled g');
  Alcotest.check cause_opt "own cancel observed" (Some Guard.Cancelled)
    (Guard.check g')

let test_first_cause_wins () =
  let g = Guard.create ~fuel:0 ~deadline_s:0.0 () in
  let first = Guard.spend g 1 in
  Alcotest.(check bool) "tripped" true (first <> None);
  Guard.cancel g;
  Alcotest.check cause_opt "cause is sticky across later signals" first
    (Guard.check g)

(* ------------------------------------------------------------------ *)
(* The outcome combinator                                              *)
(* ------------------------------------------------------------------ *)

let test_outcome () =
  let g = Guard.unlimited () in
  (match Guard.outcome g ~complete:"done" ~partial:"salvaged" with
  | Guard.Complete s -> Alcotest.(check string) "complete" "done" s
  | Guard.Exhausted _ -> Alcotest.fail "unlimited guard reported Exhausted");
  let g' = Guard.create ~fuel:0 () in
  ignore (Guard.spend g' 1);
  match Guard.outcome g' ~complete:"done" ~partial:"salvaged" with
  | Guard.Complete _ -> Alcotest.fail "tripped guard reported Complete"
  | Guard.Exhausted { partial; cause = c; progress } ->
      Alcotest.(check string) "partial" "salvaged" partial;
      Alcotest.check cause "cause" Guard.Fuel c;
      Alcotest.(check bool) "fuel counted" true (progress.Guard.fuel_spent >= 1)

(* ------------------------------------------------------------------ *)
(* Fault schedules                                                     *)
(* ------------------------------------------------------------------ *)

let test_faults_deterministic () =
  Alcotest.(check string)
    "same seed, same schedule"
    (Guard.Faults.describe (Guard.Faults.of_seed 42))
    (Guard.Faults.describe (Guard.Faults.of_seed 42));
  let trips schedule =
    Guard.Faults.install schedule;
    let ts = List.init 64 (fun _ -> Guard.Faults.forced_trip ()) in
    Guard.Faults.install Guard.Faults.none;
    ts
  in
  let s = Guard.Faults.of_seed 7 in
  Alcotest.(check bool) "seed 7 forces trips" true
    (List.exists Option.is_some (trips s));
  Alcotest.(check (list cause_opt))
    "replayable trip sequence" (trips s) (trips s);
  Guard.Faults.install Guard.Faults.none;
  Alcotest.(check (list cause_opt))
    "none forces no trip" (List.init 64 (fun _ -> None))
    (List.init 64 (fun _ -> Guard.Faults.forced_trip ()))

(* ------------------------------------------------------------------ *)
(* The saturation kernel                                               *)
(* ------------------------------------------------------------------ *)

let tally = Saturation.Stats.tally

let verdict_str = function
  | Saturation.Saturated -> "saturated"
  | Saturation.Stopped -> "stopped"
  | Saturation.Tripped c -> "tripped:" ^ Guard.cause_to_string c

let check_verdict msg expected got =
  Alcotest.(check string) msg (verdict_str expected) (verdict_str got)

let test_kernel_saturates () =
  (* Count down from 5: six committed rounds (5..0), then a drained
     worklist. *)
  let step (_ : Saturation.ctx) batch =
    let next =
      List.concat_map
        (fun n -> if n = 0 then [] else [ n - 1 ])
        (Array.to_list batch)
    in
    {
      Saturation.next;
      tally =
        tally ~expanded:(Array.length batch) ~generated:(List.length next)
          ~admitted:(List.length next) ();
      stop = false;
      commit = true;
    }
  in
  let verdict, stats = Saturation.run ~init:[ 5 ] ~step () in
  check_verdict "fixpoint" Saturation.Saturated verdict;
  Alcotest.(check int) "rounds" 6 stats.Saturation.Stats.rounds;
  Alcotest.(check int) "expanded" 6
    stats.Saturation.Stats.totals.Saturation.Stats.expanded;
  Alcotest.(check int) "admitted" 5
    stats.Saturation.Stats.totals.Saturation.Stats.admitted;
  Alcotest.(check int) "per-round entries" 6
    (Array.length stats.Saturation.Stats.per_round);
  Array.iteri
    (fun i (r : Saturation.Stats.round) ->
      Alcotest.(check int) "1-based index" (i + 1) r.Saturation.Stats.index;
      Alcotest.(check int) "frontier of 1" 1 r.Saturation.Stats.frontier)
    stats.Saturation.Stats.per_round;
  (* Empty init never calls the step. *)
  let verdict0, stats0 =
    Saturation.run ~init:[]
      ~step:(fun _ _ -> Alcotest.fail "step called on empty init")
      ()
  in
  check_verdict "empty init" Saturation.Saturated verdict0;
  Alcotest.(check int) "no rounds" 0 stats0.Saturation.Stats.rounds

let test_kernel_stops () =
  let forever (_ : Saturation.ctx) batch =
    {
      Saturation.next = Array.to_list batch;
      tally = tally ~expanded:(Array.length batch) ();
      stop = false;
      commit = true;
    }
  in
  (* Client stop flag. *)
  let v1, s1 =
    Saturation.run ~init:[ 0 ]
      ~step:(fun ctx batch -> { (forever ctx batch) with Saturation.stop = true })
      ()
  in
  check_verdict "stop flag" Saturation.Stopped v1;
  Alcotest.(check int) "stop round committed" 1 s1.Saturation.Stats.rounds;
  (* max_rounds. *)
  let v2, s2 = Saturation.run ~max_rounds:3 ~init:[ 0 ] ~step:forever () in
  check_verdict "max_rounds" Saturation.Stopped v2;
  Alcotest.(check int) "three rounds ran" 3 s2.Saturation.Stats.rounds;
  (* Drain hook answering non-positive. *)
  let v3, s3 =
    Saturation.run
      ~drain:(Saturation.At_most (fun () -> 0))
      ~init:[ 0 ] ~step:forever ()
  in
  check_verdict "dry drain hook" Saturation.Stopped v3;
  Alcotest.(check int) "no round ran" 0 s3.Saturation.Stats.rounds

let test_kernel_trips () =
  let forever (_ : Saturation.ctx) batch =
    {
      Saturation.next = Array.to_list batch;
      tally = tally ~expanded:(Array.length batch) ();
      stop = false;
      commit = true;
    }
  in
  (* A pre-tripped guard stops at the first round boundary, for free. *)
  let g = Guard.create ~fuel:0 () in
  ignore (Guard.spend g 1);
  let v1, s1 = Saturation.run ~guard:g ~init:[ 0 ] ~step:forever () in
  check_verdict "boundary trip" (Saturation.Tripped Guard.Fuel) v1;
  Alcotest.(check int) "no round ran" 0 s1.Saturation.Stats.rounds;
  (* A [spend] trip inside a committed round keeps that round. *)
  let g2 = Guard.create ~fuel:2 () in
  let v2, s2 =
    Saturation.run ~guard:g2 ~init:[ 0 ]
      ~step:(fun ctx batch ->
        ignore (Guard.spend g2 1);
        forever ctx batch)
      ()
  in
  check_verdict "spend trip, round kept" (Saturation.Tripped Guard.Fuel) v2;
  Alcotest.(check int) "tripping round committed" 3 s2.Saturation.Stats.rounds;
  (* [commit = false] discards the round wholesale. *)
  let g3 = Guard.create ~fuel:2 () in
  let v3, s3 =
    Saturation.run ~guard:g3 ~init:[ 0 ]
      ~step:(fun ctx batch ->
        match Guard.spend g3 1 with
        | Some _ ->
            {
              Saturation.next = [];
              tally = tally ~expanded:99 ();
              stop = false;
              commit = false;
            }
        | None -> forever ctx batch)
      ()
  in
  check_verdict "aborted round" (Saturation.Tripped Guard.Fuel) v3;
  Alcotest.(check int) "discarded round not counted" 2
    s3.Saturation.Stats.rounds;
  Alcotest.(check int) "discarded tally not accumulated" 2
    s3.Saturation.Stats.totals.Saturation.Stats.expanded

let test_kernel_outcome () =
  let g = Guard.unlimited () in
  (match
     Saturation.outcome Saturation.Saturated ~guard:g ~complete:"c"
       ~partial:"p" ~stopped_cause:Guard.Fuel
   with
  | Guard.Complete s -> Alcotest.(check string) "saturated = complete" "c" s
  | Guard.Exhausted _ -> Alcotest.fail "Saturated mapped to Exhausted");
  (match
     Saturation.outcome Saturation.Stopped ~guard:g ~complete:"c" ~partial:"p"
       ~stopped_cause:Guard.Fuel
   with
  | Guard.Complete _ -> Alcotest.fail "Stopped mapped to Complete"
  | Guard.Exhausted { partial; cause = c; _ } ->
      Alcotest.(check string) "partial threaded" "p" partial;
      Alcotest.check cause "stopped cause" Guard.Fuel c);
  match
    Saturation.outcome
      (Saturation.Tripped Guard.Deadline)
      ~guard:g ~complete:"c" ~partial:"p" ~stopped_cause:Guard.Fuel
  with
  | Guard.Complete _ -> Alcotest.fail "Tripped mapped to Complete"
  | Guard.Exhausted { cause = c; _ } ->
      Alcotest.check cause "trip cause wins" Guard.Deadline c

let test_kernel_fifo () =
  (* One-at-a-time drain: new items queue behind the remaining frontier,
     so the expansion order is breadth-first, like the worklists the
     rewriting and the marked process used to hand-roll. *)
  let order = ref [] in
  let step (_ : Saturation.ctx) batch =
    let n = match batch with [| n |] -> n | _ -> Alcotest.fail "batch size" in
    order := n :: !order;
    {
      Saturation.next = (if n < 10 then [ n + 10 ] else []);
      tally = tally ~expanded:1 ();
      stop = false;
      commit = true;
    }
  in
  let v, _ =
    Saturation.run
      ~drain:(Saturation.At_most (fun () -> 1))
      ~init:[ 1; 2; 3 ] ~step ()
  in
  check_verdict "drained" Saturation.Saturated v;
  Alcotest.(check (list int)) "FIFO order" [ 1; 2; 3; 11; 12; 13 ]
    (List.rev !order)

let test_kernel_million_item_frontier () =
  (* The tail-recursion acceptance bar: a million-item frontier must
     drain without stack overflow, whole (drain All) and in chunks. *)
  let n = 1_000_000 in
  let rec build i acc = if i = 0 then acc else build (i - 1) (i :: acc) in
  let init = build n [] in
  let consume (_ : Saturation.ctx) batch =
    {
      Saturation.next = [];
      tally = tally ~expanded:(Array.length batch) ();
      stop = false;
      commit = true;
    }
  in
  let v1, s1 =
    Saturation.run ~record_rounds:false ~init ~step:consume ()
  in
  check_verdict "one big round" Saturation.Saturated v1;
  Alcotest.(check int) "single round" 1 s1.Saturation.Stats.rounds;
  Alcotest.(check int) "all expanded" n
    s1.Saturation.Stats.totals.Saturation.Stats.expanded;
  let v2, s2 =
    Saturation.run
      ~drain:(Saturation.At_most (fun () -> 100_000))
      ~record_rounds:false ~init ~step:consume ()
  in
  check_verdict "chunked" Saturation.Saturated v2;
  Alcotest.(check int) "ten chunks" 10 s2.Saturation.Stats.rounds;
  Alcotest.(check int) "all expanded in chunks" n
    s2.Saturation.Stats.totals.Saturation.Stats.expanded

(* ------------------------------------------------------------------ *)
(* Chase integration                                                   *)
(* ------------------------------------------------------------------ *)

(* A non-terminating theory: every edge grows the chain one further. *)
let chain_theory =
  let e = Symbol.make "E" ~arity:2 in
  let x = Term.var "x" and y = Term.var "y" and z = Term.var "z" in
  ( e,
    Theory.make ~name:"chain"
      [
        Tgd.make ~name:"grow"
          ~body:[ Atom.make e [ x; y ] ]
          ~head:[ Atom.make e [ y; z ] ]
          ();
      ] )

let test_chase_fuel_prefix () =
  let e, theory = chain_theory in
  let d = Fact_set.of_list [ Atom.make e [ Term.const "a"; Term.const "b" ] ] in
  let guard = Guard.create ~fuel:10 () in
  let run = Chase.Engine.run ~guard ~max_depth:1000 theory d in
  Alcotest.check cause_opt "fuel trip surfaces" (Some Guard.Fuel)
    (Chase.Engine.interrupted run);
  Alcotest.(check bool) "made progress" true (Chase.Engine.depth run >= 1);
  (* The salvaged stages are exactly the fault-free ones. *)
  let reference =
    Chase.Engine.run ~max_depth:(Chase.Engine.depth run) theory d
  in
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "stage %d equal" i)
        true
        (Fact_set.equal (Chase.Engine.stage run i)
           (Chase.Engine.stage reference i)))
    (List.init (Chase.Engine.depth run + 1) Fun.id);
  match Chase.Engine.outcome run with
  | Guard.Complete _ -> Alcotest.fail "interrupted run reported Complete"
  | Guard.Exhausted { cause = c; _ } -> Alcotest.check cause "cause" Guard.Fuel c

let test_chase_cancellation () =
  let e, theory = chain_theory in
  let d = Fact_set.of_list [ Atom.make e [ Term.const "a"; Term.const "b" ] ] in
  let guard = Guard.unlimited () in
  Guard.cancel guard;
  let run = Chase.Engine.run ~guard ~max_depth:1000 theory d in
  Alcotest.check cause_opt "cancelled before the first sweep"
    (Some Guard.Cancelled)
    (Chase.Engine.interrupted run);
  Alcotest.(check int) "no stages beyond the instance" 0
    (Chase.Engine.depth run)

let test_deadline_promptness () =
  (* The acceptance bar: a 1 ms deadline on the exponential T_d chase of
     G^8 at depth 12 must return in well under a second — the checkpoint
     spacing inside sweeps is what makes this hold. *)
  let _, _, g8 = Theories.Instances.path Theories.Zoo.g2 8 in
  let guard = Guard.create ~deadline_s:0.001 () in
  let t0 = Unix.gettimeofday () in
  let run =
    Chase.Engine.run ~guard ~max_depth:12 ~max_atoms:50_000_000
      Theories.Zoo.t_d g8
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "returned promptly (%.3fs)" elapsed)
    true (elapsed < 1.0);
  Alcotest.check cause_opt "deadline reported" (Some Guard.Deadline)
    (Chase.Engine.interrupted run)

let test_rewriting_deadline_partial () =
  (* A tripped rewriting keeps its store and reports the cause through
     [outcome_of_result]. *)
  let x = Term.var "x" and y = Term.var "y" in
  let q = Cq.make ~free:[ x ] [ Atom.make Theories.Zoo.g2 [ x; y ] ] in
  let guard = Guard.create ~fuel:3 () in
  let budget =
    {
      Rewriting.Rewrite.max_disjuncts = 500;
      max_atoms_per_disjunct = 40;
      max_steps = 100_000;
    }
  in
  let r = Rewriting.Rewrite.rewrite ~guard ~budget Theories.Zoo.t_d_noloop q in
  (match r.Rewriting.Rewrite.outcome with
  | Rewriting.Rewrite.Guard_exhausted c ->
      Alcotest.check cause "fuel trip" Guard.Fuel c
  | _ -> Alcotest.fail "expected Guard_exhausted");
  Alcotest.(check bool) "partial store kept" true
    (not (Ucq.is_empty r.Rewriting.Rewrite.ucq));
  match Rewriting.Rewrite.outcome_of_result r ~guard with
  | Guard.Complete _ -> Alcotest.fail "outcome_of_result reported Complete"
  | Guard.Exhausted { cause = c; progress; _ } ->
      Alcotest.check cause "cause threaded" Guard.Fuel c;
      Alcotest.(check bool) "progress counters move" true
        (progress.Guard.fuel_spent > 0)

let () =
  Alcotest.run "guard"
    [
      ( "trips",
        [
          Alcotest.test_case "fuel" `Quick test_fuel_trip;
          Alcotest.test_case "deadline" `Quick test_deadline_trip;
          Alcotest.test_case "memory" `Quick test_memory_trip;
          Alcotest.test_case "cancellation" `Quick test_cancellation;
          Alcotest.test_case "first cause wins" `Quick test_first_cause_wins;
          Alcotest.test_case "outcome combinator" `Quick test_outcome;
        ] );
      ( "faults",
        [
          Alcotest.test_case "deterministic schedules" `Quick
            test_faults_deterministic;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "saturation fixpoint + stats" `Quick
            test_kernel_saturates;
          Alcotest.test_case "client stops" `Quick test_kernel_stops;
          Alcotest.test_case "guard trips" `Quick test_kernel_trips;
          Alcotest.test_case "outcome packaging" `Quick test_kernel_outcome;
          Alcotest.test_case "one-at-a-time drain is FIFO" `Quick
            test_kernel_fifo;
          Alcotest.test_case "1M-item frontier drains" `Quick
            test_kernel_million_item_frontier;
        ] );
      ( "integration",
        [
          Alcotest.test_case "chase fuel trip = sound prefix" `Quick
            test_chase_fuel_prefix;
          Alcotest.test_case "chase cancellation" `Quick
            test_chase_cancellation;
          Alcotest.test_case "1 ms deadline on T_d/G^8 is prompt" `Quick
            test_deadline_promptness;
          Alcotest.test_case "rewriting trip keeps partial UCQ" `Quick
            test_rewriting_deadline_partial;
        ] );
    ]
