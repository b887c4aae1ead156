(* Tests for the durability layer (lib/checkpoint): snapshot format
   round-trips and rejection paths (magic/version/length/checksum),
   injected IO faults driving the degradation ladder (torn write,
   ENOSPC, corrupt read), codec round-trips for the hash-consed logic
   types, the saturation kernel's save throttle, and — the acceptance
   contract — resume differentials against uninterrupted references:
   bit-identical chase stages (at pool sizes 1 and 4) and, for the
   rewriting engines, the same disjuncts in the same order up to
   variable renaming from every snapshot round and from every step-budget
   stop.

   Real SIGKILL trials live in tools/crash_harness.ml (make
   check-resume); these tests cover the same resume paths in-process,
   where every intermediate snapshot can be replayed deterministically. *)

open Logic

(* ------------------------------------------------------------------ *)
(* Scratch directories and raw-file helpers                            *)
(* ------------------------------------------------------------------ *)

let tmp_root =
  Filename.concat (Filename.get_temp_dir_name ()) "frontier-ckpt-tests"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* [Checkpoint.sink] creates the directory (and parents), so routing
   creation through it also exercises that contract. *)
let fresh_dir name =
  let dir = Filename.concat tmp_root name in
  rm_rf dir;
  ignore (Checkpoint.sink dir : Checkpoint.sink);
  dir

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let spew path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Flip the last payload byte: lands on content, so the header parses
   and the MD5 check is what rejects the file. *)
let flip_last_byte path =
  let b = Bytes.of_string (slurp path) in
  let i = Bytes.length b - 1 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  spew path (Bytes.to_string b)

let rewrite_version v path =
  let s = slurp path in
  let nl = String.index s '\n' in
  spew path
    (Printf.sprintf "frontier-snapshot %d%s" v
       (String.sub s nl (String.length s - nl)))

let error_label = function
  | Checkpoint.Snapshot.Missing _ -> "missing"
  | Checkpoint.Snapshot.Bad_magic _ -> "bad-magic"
  | Checkpoint.Snapshot.Bad_version _ -> "bad-version"
  | Checkpoint.Snapshot.Bad_checksum _ -> "bad-checksum"
  | Checkpoint.Snapshot.Malformed _ -> "malformed"
  | Checkpoint.Snapshot.Io _ -> "io"

let write_exn ~dir snap =
  match Checkpoint.Snapshot.write ~dir snap with
  | Ok path -> path
  | Error e -> Alcotest.fail (Checkpoint.Snapshot.describe_error e)

let read_exn path =
  match Checkpoint.Snapshot.read path with
  | Ok t -> t
  | Error e -> Alcotest.fail (Checkpoint.Snapshot.describe_error e)

let check_read_error what path =
  match Checkpoint.Snapshot.read path with
  | Ok _ -> Alcotest.failf "expected %s rejection for %s" what path
  | Error e -> Alcotest.(check string) "rejection cause" what (error_label e)

let sample round =
  {
    Checkpoint.Snapshot.kind = "test";
    round;
    meta = [ ("alpha", "1"); ("note", "two words") ];
    sections = [ ("lines", [ "a"; "b c" ]); ("empty", []) ];
  }

(* A pool without the cost gate, so the -j4 resume really fans out. *)
let pool4 = Parallel.Pool.Internal.create_fanout 4

let with_faults schedule f =
  Guard.Faults.install schedule;
  Fun.protect
    ~finally:(fun () -> Guard.Faults.install Guard.Faults.none)
    f

(* ------------------------------------------------------------------ *)
(* Snapshot format                                                     *)
(* ------------------------------------------------------------------ *)

let test_snapshot_roundtrip () =
  let dir = fresh_dir "roundtrip" in
  let path = write_exn ~dir (sample 12) in
  Alcotest.(check string)
    "round-stamped filename" "snap-00000012.ckpt" (Filename.basename path);
  let t = read_exn path in
  Alcotest.(check string) "kind" "test" t.Checkpoint.Snapshot.kind;
  Alcotest.(check int) "round" 12 t.Checkpoint.Snapshot.round;
  Alcotest.(check (option int))
    "meta_int" (Some 1)
    (Checkpoint.Snapshot.meta_int t "alpha");
  Alcotest.(check (option string))
    "meta with spaces" (Some "two words")
    (Checkpoint.Snapshot.meta t "note");
  Alcotest.(check (option string))
    "absent meta" None
    (Checkpoint.Snapshot.meta t "absent");
  Alcotest.(check (list string))
    "section lines" [ "a"; "b c" ]
    (Checkpoint.Snapshot.section t "lines");
  Alcotest.(check (list string))
    "empty section" []
    (Checkpoint.Snapshot.section t "empty");
  Alcotest.(check (list string))
    "missing section" []
    (Checkpoint.Snapshot.section t "nope")

let test_snapshot_rejections () =
  let dir = fresh_dir "rejections" in
  check_read_error "missing" (Filename.concat dir "nope.ckpt");
  let junk = Filename.concat dir "snap-00000001.ckpt" in
  spew junk "hello world\nnot a snapshot\n";
  check_read_error "bad-magic" junk;
  let path = write_exn ~dir (sample 2) in
  rewrite_version 99 path;
  (match Checkpoint.Snapshot.read path with
  | Error (Checkpoint.Snapshot.Bad_version v) ->
      Alcotest.(check int) "reports the alien version" 99 v
  | Error e ->
      Alcotest.failf "expected bad-version, got %s"
        (Checkpoint.Snapshot.describe_error e)
  | Ok _ -> Alcotest.fail "version 99 accepted");
  let path = write_exn ~dir (sample 3) in
  flip_last_byte path;
  check_read_error "bad-checksum" path;
  (* Newlines in section lines would corrupt the line-oriented payload,
     so the writer refuses them up front (surfaced as an Io error, like
     any other abandoned write). *)
  match
    Checkpoint.Snapshot.write ~dir
      { (sample 4) with sections = [ ("bad", [ "two\nlines" ]) ] }
  with
  | Error (Checkpoint.Snapshot.Io _) -> ()
  | Error e ->
      Alcotest.failf "expected Io, got %s" (Checkpoint.Snapshot.describe_error e)
  | Ok _ -> Alcotest.fail "embedded newline accepted"

let test_list_and_load_latest () =
  let dir = fresh_dir "latest" in
  List.iter (fun r -> ignore (write_exn ~dir (sample r))) [ 3; 1; 2 ];
  Alcotest.(check (list int))
    "list is newest-first" [ 3; 2; 1 ]
    (List.map fst (Checkpoint.Snapshot.list ~dir));
  (* Corrupt the newest: load_latest must degrade to round 2 and count
     the rejection, both in its return and in the process counters. *)
  flip_last_byte (snd (List.hd (Checkpoint.Snapshot.list ~dir)));
  Checkpoint.reset_counters ();
  (match Checkpoint.Snapshot.load_latest ~dir with
  | Some (t, _), rejected ->
      Alcotest.(check int) "degraded to round 2" 2 t.Checkpoint.Snapshot.round;
      Alcotest.(check int) "one rejection on the way" 1 rejected
  | None, _ -> Alcotest.fail "no snapshot survived");
  Alcotest.(check int)
    "rejection counted" 1
    (Checkpoint.counters ()).Checkpoint.rejected_reads;
  Alcotest.(check bool)
    "rejected file left for post-mortem" true
    (Sys.file_exists (Filename.concat dir "snap-00000003.ckpt"))

let test_sink_prunes () =
  let dir = fresh_dir "prune" in
  let sink = Checkpoint.sink ~every:1 ~min_interval_s:0. ~keep:2 dir in
  List.iter (fun r -> Checkpoint.save_to sink (sample r)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int))
    "only the 2 newest survive" [ 5; 4 ]
    (List.map fst (Checkpoint.Snapshot.list ~dir))

(* ------------------------------------------------------------------ *)
(* Injected IO faults: the degradation ladder                          *)
(* ------------------------------------------------------------------ *)

let test_torn_write () =
  let dir = fresh_dir "torn" in
  let good = write_exn ~dir (sample 1) in
  with_faults
    (Guard.Faults.with_io ~torn_every:1 Guard.Faults.none)
    (fun () ->
      (* The torn file lands (the rename happens) but its payload was
         truncated after the digest was computed. *)
      ignore (write_exn ~dir (sample 2)));
  check_read_error "bad-checksum" (Filename.concat dir "snap-00000002.ckpt");
  (match Checkpoint.Snapshot.load_latest ~dir with
  | Some (t, path), rejected ->
      Alcotest.(check int) "degrades past the torn file" 1
        t.Checkpoint.Snapshot.round;
      Alcotest.(check string) "to the older good snapshot" good path;
      Alcotest.(check int) "torn file counted" 1 rejected
  | None, _ -> Alcotest.fail "good snapshot not found");
  ignore (read_exn good)

let test_enospc_write () =
  let dir = fresh_dir "enospc" in
  with_faults
    (Guard.Faults.with_io ~fsync_fail_every:1 Guard.Faults.none)
    (fun () ->
      Checkpoint.reset_counters ();
      (match Checkpoint.Snapshot.write ~dir (sample 1) with
      | Error (Checkpoint.Snapshot.Io _) -> ()
      | Error e ->
          Alcotest.failf "expected Io, got %s"
            (Checkpoint.Snapshot.describe_error e)
      | Ok _ -> Alcotest.fail "write survived a failed fsync");
      (* save_to absorbs the failure — durability is best-effort — and
         counts it for --stats. *)
      Checkpoint.save_to (Checkpoint.sink ~min_interval_s:0. dir) (sample 2);
      Alcotest.(check bool)
        "failures counted" true
        ((Checkpoint.counters ()).Checkpoint.write_failures >= 2));
  Alcotest.(check (list int))
    "no file landed" []
    (List.map fst (Checkpoint.Snapshot.list ~dir))

let test_corrupt_read () =
  let dir = fresh_dir "corrupt-read" in
  let path = write_exn ~dir (sample 1) in
  with_faults
    (Guard.Faults.with_io ~corrupt_every:1 Guard.Faults.none)
    (fun () -> check_read_error "bad-checksum" path);
  (* The corruption is injected at read time; the file itself is intact. *)
  ignore (read_exn path)

(* ------------------------------------------------------------------ *)
(* Codec round-trips                                                   *)
(* ------------------------------------------------------------------ *)

let test_codec_fields () =
  let module C = Checkpoint.Codec in
  let cases = [ []; [ "" ]; [ "a b"; ""; "c:d;(e)"; "1:x" ] ] in
  List.iter
    (fun fs -> Alcotest.(check (list string)) "fields" fs (C.fields (C.concat fs)))
    cases;
  Alcotest.(check int) "int round-trip" (-42) (C.int_of_string "-42");
  (match C.int_of_string "xyz" with
  | exception C.Error _ -> ()
  | n -> Alcotest.failf "garbage int decoded to %d" n);
  match C.term_of_string "garbage" with
  | exception C.Error _ -> ()
  | _ -> Alcotest.fail "garbage term decoded"

(* Stability under re-encode is the right check for hash-consed values:
   decoding re-interns through the constructors, so a second encode must
   reproduce the exact string. *)
let rt_stable name enc dec v =
  let s = enc v in
  Alcotest.(check string) name s (enc (dec s))

let test_codec_logic_roundtrips () =
  let module C = Checkpoint.Codec in
  let x = Term.var "x" and a = Term.const "a" in
  rt_stable "var" C.term_to_string C.term_of_string x;
  rt_stable "const" C.term_to_string C.term_of_string a;
  let atom = Atom.make Theories.Zoo.g2 [ x; a ] in
  rt_stable "atom" C.atom_to_string C.atom_of_string atom;
  let _, _, phi = Theories.Zoo.phi_r 2 in
  rt_stable "cq" C.cq_to_string C.cq_of_string phi;
  List.iter
    (fun r -> rt_stable "rule" C.rule_to_string C.rule_of_string r)
    (Theory.rules Theories.Zoo.t_d);
  (* Skolem (App) terms: chase t_d a step and round-trip every derived
     atom, existential witnesses included. *)
  let _, _, d = Theories.Instances.path Theories.Zoo.g2 2 in
  let run = Chase.Engine.run ~max_depth:2 Theories.Zoo.t_d d in
  List.iter
    (fun at -> rt_stable "chased atom" C.atom_to_string C.atom_of_string at)
    (Fact_set.atoms (Chase.Engine.result run))

let test_codec_theory_chases_identically () =
  let module C = Checkpoint.Codec in
  let decoded = C.theory_of_lines (C.theory_to_lines Theories.Zoo.t_d) in
  let _, _, d = Theories.Instances.path Theories.Zoo.g2 3 in
  let a = Chase.Engine.run ~max_depth:4 Theories.Zoo.t_d d
  and b = Chase.Engine.run ~max_depth:4 decoded d in
  Alcotest.(check bool)
    "decoded theory chases to the same facts" true
    (Fact_set.equal (Chase.Engine.result a) (Chase.Engine.result b))

(* The capture-prevention regression (observed live: a resumed rewriting
   silently under-approximated): decoding a [prefix#n] variable must
   advance the fresh-variable counter past [n]. *)
let test_codec_reserves_fresh () =
  let module C = Checkpoint.Codec in
  let high = 1_000_000 in
  let name = Printf.sprintf "zz#%d" high in
  ignore (C.term_of_string (C.term_to_string (Term.var name)));
  match (Cq.fresh_var ~prefix:"zz" ()).Term.view with
  | Term.Var fresh ->
      let suffix =
        int_of_string
          (String.sub fresh
             (String.rindex fresh '#' + 1)
             (String.length fresh - String.rindex fresh '#' - 1))
      in
      Alcotest.(check bool)
        (Printf.sprintf "fresh %s minted past the decoded %s" fresh name)
        true (suffix > high)
  | _ -> Alcotest.fail "fresh_var did not return a variable"

(* The marked process writes its snapshot lines through a
   [Codec.writer]: nested fields in reused scratch buffers. Their bytes
   must be those of the nested [concat] encoding (the format has one
   version). A fixed query's lines are pinned, and a resume that saves
   again at once must write them back unchanged. The variable names are
   used nowhere else, so their term ids (which order the marked set)
   follow the order they are made in here. *)
let test_marked_lines_pinned () =
  let module C = Checkpoint.Codec in
  let x = Term.var "pin_x" and y = Term.var "pin_y" in
  let z = Term.var "pin_z" and u = Term.var "pin_u" in
  let r = Theories.Zoo.r2 and g = Theories.Zoo.g2 in
  (* The writer against nested [concat], deeper than its first buffer,
     with a functional term. *)
  let fz = Term.app "f" [ z; Term.const "pin_c" ] in
  let w = C.writer () in
  Alcotest.(check string)
    "writer = nested concat"
    (C.concat
       [
         C.concat [ C.concat [ C.term_to_string fz ]; C.term_to_string x ];
         C.atom_to_string (Atom.make r [ x; fz ]);
       ])
    (C.line w (fun w ->
         C.field w (fun w ->
             C.field w (fun w -> C.term_field w fz);
             C.term_field w x);
         C.atom_field w (Atom.make r [ x; fz ])));
  let q =
    Cq.make ~free:[ x; y ]
      [ Atom.make r [ x; z ]; Atom.make r [ y; u ]; Atom.make g [ z; u ] ]
  in
  let save dir run =
    let sink = Checkpoint.sink ~every:1 ~min_interval_s:0. ~keep:1 dir in
    ignore (run sink : Marked.Process.result);
    match Checkpoint.Snapshot.load_latest ~dir with
    | Some (snap, _), _ -> snap
    | None, _ -> Alcotest.fail "no snapshot saved"
  in
  let snap =
    save (fresh_dir "marked-lines") (fun sink ->
        Marked.Process.rewrite_td ~max_steps:0 ~checkpoint:sink q)
  in
  (* No step ran: the two live markings of [q] (x, y marked; then z
     too), each as (free pairs)(marked set)(atoms). *)
  let body =
    "75:22:A1:G(v5:pin_zv5:pin_u)22:A1:R(v5:pin_xv5:pin_z)\
     22:A1:R(v5:pin_yv5:pin_u)"
  in
  let free = "46:20:8:v5:pin_x8:v5:pin_x20:8:v5:pin_y8:v5:pin_y" in
  Alcotest.(check (list string))
    "frontier lines"
    [
      free ^ "20:8:v5:pin_x8:v5:pin_y" ^ body;
      free ^ "30:8:v5:pin_x8:v5:pin_y8:v5:pin_z" ^ body;
    ]
    (Checkpoint.Snapshot.section snap "frontier");
  let again =
    save (fresh_dir "marked-lines-again") (fun sink ->
        Marked.Process.resume ~max_steps:0 ~checkpoint:sink snap)
  in
  List.iter
    (fun name ->
      Alcotest.(check (list string))
        (name ^ " lines written back")
        (List.sort compare (Checkpoint.Snapshot.section snap name))
        (List.sort compare (Checkpoint.Snapshot.section again name)))
    [ "frontier"; "finished"; "trivial"; "seen" ]

(* ------------------------------------------------------------------ *)
(* Atomic plain-file writes                                            *)
(* ------------------------------------------------------------------ *)

let test_atomic_io () =
  let dir = fresh_dir "atomic" in
  let path = Filename.concat dir "out.json" in
  Checkpoint.Atomic_io.write_file path "first\n";
  Alcotest.(check string) "content lands" "first\n" (slurp path);
  Checkpoint.Atomic_io.write_file path "second\n";
  Alcotest.(check string) "overwrite replaces" "second\n" (slurp path);
  Alcotest.(check (list string))
    "no temp files left behind" [ "out.json" ]
    (Array.to_list (Sys.readdir dir))

(* ------------------------------------------------------------------ *)
(* The kernel's save throttle                                          *)
(* ------------------------------------------------------------------ *)

(* ~100 one-item rounds of ~1 ms under a sink throttled to 20 ms, with
   an encoder that takes 50 ms. The throttle counts from the end of the
   previous save, so each cadence save starts at least 20 ms after the
   last one ended; counted from its start, every round after the first
   slow save would save. *)
let test_throttle_counts_from_save_end () =
  let dir = fresh_dir "throttle" in
  let sink = Checkpoint.sink ~every:1 ~min_interval_s:0.02 dir in
  let saves = ref [] in
  let encode ~round _frontier =
    let t0 = Unix.gettimeofday () in
    Unix.sleepf 0.05;
    saves := (t0, Unix.gettimeofday ()) :: !saves;
    { (sample round) with Checkpoint.Snapshot.sections = [] }
  in
  let step ~round:_ i =
    Unix.sleepf 0.001;
    {
      Saturation.next = (if i < 100 then [ i + 1 ] else []);
      tally = Saturation.Stats.zero;
      stop = false;
      commit = true;
    }
  in
  let verdict, _ =
    Saturation.run ~checkpoint:(sink, encode) ~init:[ 0 ] ~step ()
  in
  Alcotest.(check bool) "saturated" true (verdict = Saturation.Saturated);
  let saves = List.rev !saves in
  Alcotest.(check bool) "several cadence saves" true (List.length saves >= 2);
  let rec gaps = function
    | (_, ended) :: ((started, _) :: _ as rest) ->
        (started -. ended) :: gaps rest
    | _ -> []
  in
  List.iter
    (fun gap ->
      Alcotest.(check bool)
        (Printf.sprintf "save starts %.4f s after the last ended" gap)
        true (gap >= 0.02))
    (gaps saves)

(* ------------------------------------------------------------------ *)
(* Resume differentials against uninterrupted references               *)
(* ------------------------------------------------------------------ *)

(* Chase: T_d over G^4. Small enough that replaying from every snapshot
   round stays quick, deep enough (recursive loop rule) that the run
   hits max_depth rather than saturating, so a final snapshot lands. *)
let chase_depth = 5
let chase_instance =
  lazy (let _, _, d = Theories.Instances.path Theories.Zoo.g2 4 in d)

let chase_ref =
  lazy
    (Chase.Engine.run ~max_depth:chase_depth Theories.Zoo.t_d
       (Lazy.force chase_instance))

let chase_snaps =
  lazy
    (let dir = fresh_dir "chase-cadence" in
     let sink = Checkpoint.sink ~every:1 ~min_interval_s:0. ~keep:1000 dir in
     ignore
       (Chase.Engine.run ~max_depth:chase_depth ~checkpoint:sink
          Theories.Zoo.t_d (Lazy.force chase_instance));
     Checkpoint.Snapshot.list ~dir)

let chase_runs_identical a b =
  Chase.Engine.depth a = Chase.Engine.depth b
  && Chase.Engine.saturated a = Chase.Engine.saturated b
  &&
  let ok = ref true in
  for i = 0 to Chase.Engine.depth a do
    if not (Fact_set.equal (Chase.Engine.stage a i) (Chase.Engine.stage b i))
    then ok := false
  done;
  !ok

let test_chase_resume_every_round () =
  let snaps = Lazy.force chase_snaps in
  Alcotest.(check bool)
    "cadence produced several snapshots" true
    (List.length snaps >= 3);
  List.iter
    (fun (round, path) ->
      let resumed = Chase.Engine.resume (read_exn path) in
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical stages resuming from round %d" round)
        true
        (chase_runs_identical (Lazy.force chase_ref) resumed))
    snaps

let test_chase_resume_pool4 () =
  let _, path = List.hd (Lazy.force chase_snaps) in
  let resumed = Chase.Engine.resume ~pool:pool4 (read_exn path) in
  Alcotest.(check bool)
    "bit-identical stages at -j4" true
    (chase_runs_identical (Lazy.force chase_ref) resumed)

(* Rewriting: the Example 28 tower at K = 3 with a boolean E_0 query —
   the same workload the crash harness kills for real. *)
let rw_theory = lazy (Theories.Zoo.t_e28 3)

let rw_query =
  lazy
    (Cq.make ~free:[]
       [ Atom.make (Theories.Zoo.e_k 0) [ Term.var "x"; Term.var "y" ] ])

let rw_ref =
  lazy (Rewriting.Rewrite.rewrite (Lazy.force rw_theory) (Lazy.force rw_query))

let rw_snaps =
  lazy
    (let dir = fresh_dir "rw-cadence" in
     let sink = Checkpoint.sink ~every:1 ~min_interval_s:0. ~keep:1000 dir in
     ignore
       (Rewriting.Rewrite.rewrite ~checkpoint:sink (Lazy.force rw_theory)
          (Lazy.force rw_query));
     Checkpoint.Snapshot.list ~dir)

(* The same disjuncts in the same order, up to variable renaming. *)
let canon_ids u = List.map Cq.canon_id (Ucq.disjuncts u)

let rw_resume_matches path =
  let resumed = Rewriting.Rewrite.resume (read_exn path) in
  let reference = Lazy.force rw_ref in
  (reference.Rewriting.Rewrite.outcome = Rewriting.Rewrite.Complete)
  = (resumed.Rewriting.Rewrite.outcome = Rewriting.Rewrite.Complete)
  && canon_ids reference.Rewriting.Rewrite.ucq
     = canon_ids resumed.Rewriting.Rewrite.ucq

let test_rewrite_resume_every_round () =
  let snaps = Lazy.force rw_snaps in
  Alcotest.(check bool)
    "cadence produced several snapshots" true
    (List.length snaps >= 2);
  List.iter
    (fun (round, path) ->
      Alcotest.(check bool)
        (Printf.sprintf "same disjuncts resuming from round %d" round)
        true (rw_resume_matches path))
    snaps

(* A step budget is a decline: the run stops with the budget-exhausting
   item still at the head of its final snapshot's frontier. Resumed under
   the default budget, that snapshot must finish like the uninterrupted
   run: the same disjuncts in the same order and the same step count.
   E^5 under T_loopcut pops two disjuncts that were subsumed after they
   were enqueued (9 kernel rounds, 7 steps), and the budgets cover every
   k below its step count, so some stops have such a disjunct at the
   frontier's head. *)
let loopcut_query = lazy (let _, _, q = Theories.Zoo.e_path_query 5 in q)

let loopcut_ref =
  lazy
    (Rewriting.Rewrite.rewrite Theories.Zoo.t_loopcut
       (Lazy.force loopcut_query))

let test_rewrite_budget_resume () =
  let reference = Lazy.force loopcut_ref in
  let ref_steps = reference.Rewriting.Rewrite.steps in
  let dead_heads = ref 0 in
  for k = 1 to ref_steps - 1 do
    let dir = fresh_dir (Printf.sprintf "rw-budget-%d" k) in
    let budget = { Rewriting.Rewrite.default_budget with max_steps = k } in
    let stopped =
      Rewriting.Rewrite.rewrite ~budget
        ~checkpoint:(Checkpoint.sink ~every:1_000_000 dir)
        Theories.Zoo.t_loopcut (Lazy.force loopcut_query)
    in
    Alcotest.(check bool)
      (Printf.sprintf "k = %d stops on its step budget" k)
      true
      (stopped.Rewriting.Rewrite.outcome = Rewriting.Rewrite.Step_budget);
    let snap =
      match Checkpoint.Snapshot.load_latest ~dir with
      | Some (snap, _), _ -> snap
      | None, _ -> Alcotest.failf "k = %d left no snapshot" k
    in
    let ids section =
      List.map
        (fun line -> Cq.canon_id (Checkpoint.Codec.cq_of_string line))
        (Checkpoint.Snapshot.section snap section)
    in
    (match ids "frontier" with
    | head :: _ when not (List.mem head (ids "store")) -> incr dead_heads
    | _ -> ());
    let resumed =
      Rewriting.Rewrite.resume ~budget:Rewriting.Rewrite.default_budget snap
    in
    Alcotest.(check (list int))
      (Printf.sprintf "k = %d: same disjuncts, same order" k)
      (canon_ids reference.Rewriting.Rewrite.ucq)
      (canon_ids resumed.Rewriting.Rewrite.ucq);
    Alcotest.(check int)
      (Printf.sprintf "k = %d: same steps" k)
      ref_steps resumed.Rewriting.Rewrite.steps
  done;
  Alcotest.(check bool)
    "some stop has a subsumed disjunct at the frontier's head" true
    (!dead_heads > 0)

(* QCheck differential: a random snapshot round, resumed, always yields
   the uninterrupted reference's disjuncts in its order. *)
let prop_rewrite_resume_any_round =
  QCheck.Test.make ~count:10
    ~name:"rewrite: resume from a random snapshot round"
    QCheck.(int_bound 10_000)
    (fun i ->
      let snaps = Lazy.force rw_snaps in
      let _, path = List.nth snaps (i mod List.length snaps) in
      rw_resume_matches path)

(* Marked process: phi_R^3. The store snapshot carries the full
   iso-dedup seen-set, so resuming must neither re-admit processed
   queries nor lose collected ones. *)
let marked_query = lazy (let _, _, phi = Theories.Zoo.phi_r 3 in phi)
let marked_ref = lazy (Marked.Process.rewrite_td (Lazy.force marked_query))

let marked_snaps =
  lazy
    (let dir = fresh_dir "marked-cadence" in
     let sink = Checkpoint.sink ~every:25 ~min_interval_s:0. ~keep:1000 dir in
     ignore
       (Marked.Process.rewrite_td ~checkpoint:sink (Lazy.force marked_query));
     Checkpoint.Snapshot.list ~dir)

let marked_resume_matches path =
  let resumed = Marked.Process.resume (read_exn path) in
  let reference = Lazy.force marked_ref in
  reference.Marked.Process.complete = resumed.Marked.Process.complete
  && canon_ids reference.Marked.Process.rewriting
     = canon_ids resumed.Marked.Process.rewriting
  && List.length reference.Marked.Process.trivial
     = List.length resumed.Marked.Process.trivial
  && List.length reference.Marked.Process.aliased
     = List.length resumed.Marked.Process.aliased

let test_marked_resume () =
  let snaps = Lazy.force marked_snaps in
  Alcotest.(check bool)
    "cadence produced several snapshots" true
    (List.length snaps >= 2);
  (* Newest, middle, oldest: replaying every round would be slow; the
     crash harness covers random interior rounds with real kills. *)
  let picks =
    let n = List.length snaps in
    List.sort_uniq compare [ 0; n / 2; n - 1 ]
  in
  List.iter
    (fun i ->
      let round, path = List.nth snaps i in
      Alcotest.(check bool)
        (Printf.sprintf "same disjuncts resuming from round %d" round)
        true (marked_resume_matches path))
    picks

let test_resume_wrong_kind_rejected () =
  let _, path = List.hd (Lazy.force chase_snaps) in
  let snap = read_exn path in
  match Rewriting.Rewrite.resume snap with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rewrite engine accepted a chase snapshot"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "checkpoint"
    [
      ( "snapshot",
        [
          Alcotest.test_case "round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "rejections" `Quick test_snapshot_rejections;
          Alcotest.test_case "list + load_latest degrade" `Quick
            test_list_and_load_latest;
          Alcotest.test_case "sink prunes to keep" `Quick test_sink_prunes;
        ] );
      ( "faults",
        [
          Alcotest.test_case "torn write fails its checksum" `Quick
            test_torn_write;
          Alcotest.test_case "failed fsync abandons the write" `Quick
            test_enospc_write;
          Alcotest.test_case "corrupt read caught by checksum" `Quick
            test_corrupt_read;
        ] );
      ( "codec",
        [
          Alcotest.test_case "fields + scalars" `Quick test_codec_fields;
          Alcotest.test_case "logic round-trips" `Quick
            test_codec_logic_roundtrips;
          Alcotest.test_case "decoded theory chases identically" `Quick
            test_codec_theory_chases_identically;
          Alcotest.test_case "decoding reserves fresh names" `Quick
            test_codec_reserves_fresh;
          Alcotest.test_case "marked lines: pinned bytes, written back" `Quick
            test_marked_lines_pinned;
        ] );
      ( "atomic-io",
        [ Alcotest.test_case "write + overwrite" `Quick test_atomic_io ] );
      ( "throttling",
        [
          Alcotest.test_case "cadence saves start after the last one ended"
            `Quick test_throttle_counts_from_save_end;
        ] );
      ( "resume",
        [
          Alcotest.test_case "chase: every round, bit-identical" `Quick
            test_chase_resume_every_round;
          Alcotest.test_case "chase: -j4 resume" `Quick test_chase_resume_pool4;
          Alcotest.test_case "rewrite: budget stop, resumed" `Quick
            test_rewrite_budget_resume;
          Alcotest.test_case "rewrite: every round, same disjuncts" `Quick
            test_rewrite_resume_every_round;
          QCheck_alcotest.to_alcotest prop_rewrite_resume_any_round;
          Alcotest.test_case "marked: store-preserving resume" `Quick
            test_marked_resume;
          Alcotest.test_case "wrong snapshot kind rejected" `Quick
            test_resume_wrong_kind_rejected;
        ] );
    ]
