(* Crash/resume differential harness.

   Usage: crash_harness.exe [--workload chase|marked|rewrite|all]
                            [--trials N] [--dir D] [seed ...]

   Each trial forks a real child process that runs the workload with
   checkpointing enabled, SIGKILLs it at a seeded-random saturation
   round (watching the snapshot directory for the target round to
   appear), then resumes in the parent from the newest valid snapshot
   ({!Checkpoint.Snapshot.load_latest}) and compares the completed
   result against an uninterrupted reference run: bit-identical stages
   for the chase; for the rewriting engines the same disjuncts in the
   same order up to variable renaming (equal [Cq.canon_id] lists), and
   equal trivial/aliased counts. A child that the 120 s deadline killed
   before it reached its target fails the trial; a child that finishes
   before its target passes, resumed from its last snapshot. Exit 1 on
   any failure. Default seeds 1 7 42, 5 trials each.

   The workloads are the acceptance pair from the durability issue —
   the T_d chase over a G^8 path and the marked-query process on
   phi_R^5 — plus the generic UCQ rewriter on Example 28 for
   completeness. *)

let usage () =
  prerr_endline
    "usage: crash_harness [--workload chase|marked|rewrite|all] [--trials \
     N] [--dir D] [seed ...]";
  exit 2

type workload = Chase | Marked | Rewrite

let workload_name = function
  | Chase -> "chase"
  | Marked -> "marked"
  | Rewrite -> "rewrite"

(* One deterministic pseudo-random target round per (seed, trial):
   splitmix finisher, same mixer family the fault schedules use. *)
let mix k =
  let k = Int64.of_int k in
  let k = Int64.mul k 0x9E3779B97F4A7C15L in
  let k = Int64.logxor k (Int64.shift_right_logical k 29) in
  let k = Int64.mul k 0xBF58476D1CE4E5B9L in
  let k = Int64.logxor k (Int64.shift_right_logical k 32) in
  Int64.to_int (Int64.logand k 0x3FFFFFFFFFFFFFFFL)

(* --- workload definitions ------------------------------------------- *)

let chase_theory = Theories.Zoo.t_d
let chase_instance = lazy (let _, _, d = Theories.Instances.path Theories.Zoo.g2 8 in d)
let chase_depth = 7
let chase_atoms = 400_000

let marked_query = lazy (let _, _, phi = Theories.Zoo.phi_r 5 in phi)

let rewrite_theory = lazy (Theories.Zoo.t_e28 3)

let rewrite_query =
  lazy
    (let x = Logic.Term.var "x" and y = Logic.Term.var "y" in
     Logic.Cq.make ~free:[]
       [ Logic.Atom.make (Theories.Zoo.e_k 0) [ x; y ] ])

(* The round range kills are aimed at, per workload. The chase commits
   one round per stage; the rewriting engines one per worklist pop. *)
let target_round seed trial = function
  | Chase -> 1 + (mix ((seed * 1009) + trial) mod (chase_depth - 1))
  | Marked -> 100 + (mix ((seed * 2003) + trial) mod 8_000)
  | Rewrite -> 1 + (mix ((seed * 3001) + trial) mod 3)

(* Snapshot cadence in the child: every committed round, throttled only
   for the marked process, whose full-store snapshots are heavyweight at
   one-pop-per-round granularity. *)
let child_sink dir = function
  | Marked -> Checkpoint.sink ~every:1 ~min_interval_s:0.05 dir
  | Chase | Rewrite -> Checkpoint.sink ~every:1 ~min_interval_s:0. dir

(* How long the kill loop sleeps between looks at the snapshot
   directory (each look is a readdir). The marked child snapshots at
   most every 50 ms and runs for seconds, so 5 ms polls still kill it
   within a tenth of its snapshot interval and cost the parent little.
   The chase and rewrite children commit a round in well under 5 ms
   (at 5 ms the Example 28 rewriting finished its four rounds before
   the first poll), so they keep 0.5 ms polls; their trials last under
   a second each. *)
let poll_interval = function Marked -> 0.005 | Chase | Rewrite -> 0.0005

let run_child dir w =
  let sink = child_sink dir w in
  (match w with
  | Chase ->
      ignore
        (Chase.Engine.run ~max_depth:chase_depth ~max_atoms:chase_atoms
           ~checkpoint:sink chase_theory (Lazy.force chase_instance))
  | Marked ->
      ignore
        (Marked.Process.rewrite_td ~checkpoint:sink
           (Lazy.force marked_query))
  | Rewrite ->
      ignore
        (Rewriting.Rewrite.rewrite ~checkpoint:sink
           (Lazy.force rewrite_theory)
           (Lazy.force rewrite_query)));
  (* Skip at_exit: flushing the parent's inherited buffers here would
     duplicate its output. *)
  Unix._exit 0

(* --- reference results and comparison ------------------------------- *)

type reference =
  | Chase_ref of Chase.Engine.run
  | Marked_ref of Marked.Process.result
  | Rewrite_ref of Rewriting.Rewrite.result

let reference w =
  match w with
  | Chase ->
      Chase_ref
        (Chase.Engine.run ~max_depth:chase_depth ~max_atoms:chase_atoms
           chase_theory (Lazy.force chase_instance))
  | Marked -> Marked_ref (Marked.Process.rewrite_td (Lazy.force marked_query))
  | Rewrite ->
      Rewrite_ref
        (Rewriting.Rewrite.rewrite
           (Lazy.force rewrite_theory)
           (Lazy.force rewrite_query))

let canon_ids u = List.map Logic.Cq.canon_id (Logic.Ucq.disjuncts u)

let resume_and_compare ~dir ~ref_result =
  match Checkpoint.Snapshot.load_latest ~dir with
  | None, rejected ->
      Error (Printf.sprintf "no valid snapshot (%d rejected)" rejected)
  | Some (snap, _), _ -> (
      let resumed =
        match snap.Checkpoint.Snapshot.kind with
        | k when k = Chase.Engine.checkpoint_kind ->
            Chase_ref (Chase.Engine.resume snap)
        | k when k = Marked.Process.checkpoint_kind ->
            Marked_ref (Marked.Process.resume snap)
        | k when k = Rewriting.Rewrite.checkpoint_kind ->
            Rewrite_ref (Rewriting.Rewrite.resume snap)
        | k -> failwith ("unknown snapshot kind " ^ k)
      in
      match (ref_result, resumed) with
      | Chase_ref a, Chase_ref b ->
          let stages_equal =
            Chase.Engine.depth a = Chase.Engine.depth b
            && Chase.Engine.saturated a = Chase.Engine.saturated b
            &&
            let ok = ref true in
            for i = 0 to Chase.Engine.depth a do
              if
                not
                  (Logic.Fact_set.equal (Chase.Engine.stage a i)
                     (Chase.Engine.stage b i))
              then ok := false
            done;
            !ok
          in
          if stages_equal then Ok ()
          else Error "chase stages differ after resume"
      | Marked_ref a, Marked_ref b ->
          if
            a.Marked.Process.complete = b.Marked.Process.complete
            && canon_ids a.Marked.Process.rewriting
               = canon_ids b.Marked.Process.rewriting
            && List.length a.Marked.Process.trivial
               = List.length b.Marked.Process.trivial
            && List.length a.Marked.Process.aliased
               = List.length b.Marked.Process.aliased
          then Ok ()
          else Error "marked rewriting differs after resume"
      | Rewrite_ref a, Rewrite_ref b ->
          if
            (a.Rewriting.Rewrite.outcome = Rewriting.Rewrite.Complete)
            = (b.Rewriting.Rewrite.outcome = Rewriting.Rewrite.Complete)
            && canon_ids a.Rewriting.Rewrite.ucq
               = canon_ids b.Rewriting.Rewrite.ucq
          then Ok ()
          else Error "ucq rewriting differs after resume"
      | _ -> Error "resumed a different workload kind")

(* --- the kill loop --------------------------------------------------- *)

let newest_round dir =
  match Checkpoint.Snapshot.list ~dir with
  | (round, _) :: _ -> Some round
  | [] -> None

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun e -> rm_rf (Filename.concat path e))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let deadline_s = 120.

let one_trial ~base ~seed ~trial w ~ref_result =
  let dir =
    Filename.concat base
      (Printf.sprintf "%s-s%d-t%d" (workload_name w) seed trial)
  in
  rm_rf dir;
  let target = target_round seed trial w in
  let t0 = Unix.gettimeofday () in
  (* [true] when the deadline, not the target, ended the child. *)
  let by_deadline =
    match Unix.fork () with
    | 0 -> ( try run_child dir w with _ -> Unix._exit 3)
    | pid ->
        let kill () =
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
        in
        let reached () =
          match newest_round dir with Some r -> r >= target | None -> false
        in
        let rec watch () =
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ when reached () ->
              kill ();
              false
          | 0, _ when Unix.gettimeofday () -. t0 > deadline_s ->
              kill ();
              true
          | 0, _ ->
              Unix.sleepf (poll_interval w);
              watch ()
          | _ -> false
        in
        watch ()
  in
  match newest_round dir with
  | None -> Error ("child died before writing any snapshot", None)
  | Some killed_at when by_deadline && killed_at < target ->
      Error
        ( Printf.sprintf "the %.0f s deadline killed the child first"
            deadline_s,
          Some (target, killed_at) )
  | Some killed_at -> (
      match resume_and_compare ~dir ~ref_result with
      | Ok () ->
          rm_rf dir;
          Ok (target, killed_at, Unix.gettimeofday () -. t0)
      | Error msg -> Error (msg, Some (target, killed_at))
      | exception e ->
          Error (Printexc.to_string e, Some (target, killed_at)))

let () =
  let seeds = ref []
  and trials = ref 5
  and base = ref (Filename.concat (Filename.get_temp_dir_name ()) "frontier-crash")
  and workloads = ref [ Chase; Marked; Rewrite ] in
  let rec parse = function
    | [] -> ()
    | "--trials" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n > 0 -> trials := n
        | _ -> usage ());
        parse rest
    | "--dir" :: d :: rest ->
        base := d;
        parse rest
    | "--workload" :: w :: rest ->
        (match w with
        | "chase" -> workloads := [ Chase ]
        | "marked" -> workloads := [ Marked ]
        | "rewrite" -> workloads := [ Rewrite ]
        | "all" -> workloads := [ Chase; Marked; Rewrite ]
        | _ -> usage ());
        parse rest
    | s :: rest ->
        (match int_of_string_opt s with
        | Some seed -> seeds := seed :: !seeds
        | None -> usage ());
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seeds = match List.rev !seeds with [] -> [ 1; 7; 42 ] | s -> s in
  (try Unix.mkdir !base 0o755
   with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ());
  let failures = ref 0 and total = ref 0 in
  List.iter
    (fun w ->
      let ref_result = reference w in
      List.iter
        (fun seed ->
          for trial = 1 to !trials do
            incr total;
            match one_trial ~base:!base ~seed ~trial w ~ref_result with
            | Ok (target, killed_at, wall_s) ->
                Printf.printf
                  "PASS %s seed=%d trial=%d: killed at round %d (target \
                   %d), trial %.1f s\n%!"
                  (workload_name w) seed trial killed_at target wall_s
            | Error (msg, detail) ->
                incr failures;
                Printf.printf "FAIL %s seed=%d trial=%d: %s%s\n%!"
                  (workload_name w) seed trial msg
                  (match detail with
                  | Some (target, killed_at) ->
                      Printf.sprintf " (killed at round %d, target %d)"
                        killed_at target
                  | None -> "")
          done)
        seeds)
    !workloads;
  Printf.printf "crash harness: %d/%d trials passed\n%!"
    (!total - !failures) !total;
  if !failures > 0 then exit 1
