(* The repository benchmark.

   Each workload run starts fresh child processes of this executable, one
   after another, until [--seconds] have passed (or exactly [--runs] of
   them). Every child sets up its inputs from the seed, reports that it is
   ready, times each op, checks each output against the golden digests
   outside the timer, and reports back over a pipe. A fresh process per
   child matters: the arena, the hash-cons tables, the containment memo
   and the evaluation layer's view cache are process-wide, and repeats
   inside one process run measurably faster than what a user of the
   library pays.

   The last line of output is one JSON object with the keys [correct],
   [attempted], [failed] and [metrics]: the end-to-end metrics of an
   untraced run, or the per-layer metrics of a traced one ([--trace 1]),
   where untraced and traced children alternate. See README.md. *)

let usage =
  "usage: run.exe [--workload NAME]... [--seed N] [--seconds S] [--runs N]\n\
  \               [--trace 0|1] [--verify [--write-goldens]] [--list] [--smoke]\n\
  \               [--root DIR] [--append FILE]"

type opts = {
  workloads : Workload.t list;  (** empty: all of them *)
  seed : int;
  seconds : float;
  runs : int option;
  trace : bool;
  verify : bool;
  write_goldens : bool;
  list : bool;
  size : Workload.size;
  root : string;  (** the benchmark directory: goldens/ and results/ *)
  append : string option;
  child : bool;
  setup_only : bool;
}

let defaults =
  {
    workloads = []; seed = 42; seconds = 20.; runs = None; trace = false;
    verify = false; write_goldens = false; list = false; size = Workload.Full;
    root = "benchmark"; append = None; child = false; setup_only = false;
  }

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      prerr_endline usage;
      exit 2)
    fmt

let parse args =
  let int name v =
    match int_of_string_opt v with Some n -> n | None -> die "%s: not an integer: %s" name v
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: name :: rest -> (
        match Workload.find name with
        | Some w -> go { o with workloads = o.workloads @ [ w ] } rest
        | None ->
            die "unknown workload %s (have: %s)" name
              (String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all)))
    | "--seed" :: v :: rest -> go { o with seed = int "--seed" v } rest
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0. -> go { o with seconds = s } rest
        | _ -> die "--seconds: not a positive number: %s" v)
    | "--runs" :: v :: rest ->
        let n = int "--runs" v in
        if n < 1 then die "--runs must be at least 1";
        go { o with runs = Some n } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = v = "1" } rest
    | "--trace" :: rest -> go { o with trace = true } rest
    | "--verify" :: rest -> go { o with verify = true } rest
    | "--write-goldens" :: rest -> go { o with write_goldens = true } rest
    | "--list" :: rest -> go { o with list = true } rest
    | "--smoke" :: rest -> go { o with size = Workload.Smoke } rest
    | "--root" :: dir :: rest -> go { o with root = dir } rest
    | "--append" :: file :: rest -> go { o with append = Some file } rest
    | "--child" :: rest -> go { o with child = true } rest
    | "--setup-only" :: rest -> go { o with setup_only = true } rest
    | arg :: _ -> die "unknown or incomplete argument: %s" arg
  in
  let o = go defaults args in
  { o with workloads = (if o.workloads = [] then Workload.all else o.workloads) }

let now = Trace.now
let nproc = Domain.recommended_domain_count ()

(* {1 The child: one fresh process, one pass over a workload's ops} *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line -> (
        match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
        | Some kb -> float_of_int kb /. 1024.
        | None -> scan ())
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let emit fmt = Printf.ksprintf (fun s -> print_string s; print_char '\n'; flush stdout) fmt

let results_dir o =
  let dir = Filename.concat o.root "results" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

let run_child o (w : Workload.t) =
  (* A hung child must not hold the run past its time limit. *)
  ignore (Unix.alarm 170);
  let tr = if o.trace then Some (Trace.create ()) else None in
  let inputs = w.setup o.size ~seed:o.seed tr in
  let pool = Parallel.Pool.create w.jobs in
  emit "ready";
  if not o.setup_only then begin
    let ops = Workload.ops inputs pool in
    let path = Workload.golden_path ~root:o.root w o.size ~seed:o.seed in
    let golden = Workload.read_golden path in
    (* Seeded workloads have goldens for seed 42 only. *)
    let missing = golden = None && not w.seeded in
    if missing then Printf.eprintf "%s: missing golden %s\n%!" w.name path;
    Parallel.Pool.reset_busy pool;
    let failed = ref (if missing then 1 else 0) in
    let wall = ref 0. and digests = Buffer.create 1024 in
    Array.iteri
      (fun i (op : Workload.op) ->
        Option.iter (fun t -> Trace.set_op t i) tr;
        let t0 = now () in
        let check =
          try Ok (Trace.span tr "op" (fun () -> op.run tr)) with e -> Error e
        in
        let dt = now () -. t0 in
        wall := !wall +. dt;
        emit "op %.9f" dt;
        let verdict =
          match check with
          | Error e -> Error (Printexc.to_string e)
          | Ok check -> (
              match check () with
              | exception e -> Error (Printexc.to_string e)
              | o when not o.ok -> Error "inexact answer, fallback or wrong shape"
              | o -> (
                  Buffer.add_string digests o.digest;
                  let line = Workload.golden_line i (op.label, o) in
                  match golden with
                  | Some g when i >= Array.length g || g.(i) <> line ->
                      Error ("differs from the golden: " ^ line)
                  | _ -> Ok ()))
        in
        match verdict with
        | Ok () -> ()
        | Error msg ->
            incr failed;
            Printf.eprintf "%s op %d (%s): %s\n%!" w.name i op.label msg)
      ops;
    (match golden with
    | Some g when Array.length g <> Array.length ops ->
        incr failed;
        Printf.eprintf "%s: golden %s has %d ops, the workload %d\n%!" w.name path
          (Array.length g) (Array.length ops)
    | _ -> ());
    let digest = Digest.to_hex (Digest.string (Buffer.contents digests)) in
    emit "done %.9f %.3f %d %d %s" !wall (peak_rss_mb ()) (Array.length ops) !failed digest;
    Option.iter
      (fun t ->
        let busy = Array.fold_left ( +. ) 0. (Parallel.Pool.busy_times pool) in
        List.iter
          (fun (name, unit, v) -> emit "metric %s %s %.17g" name unit v)
          (Trace.layer_metrics t ~pool_busy_s:busy ~pool_size:w.jobs);
        List.iter
          (fun (r : Trace.summary_row) ->
            emit "span %s %d %.9f %.9f %s" r.row_name r.count r.total_s r.self_s
              (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.6f") r.row_gc))))
          (Trace.summary t);
        Trace.write_file t
          (Filename.concat (results_dir o)
             (Printf.sprintf "trace-%s-%d.json" w.name o.seed))
          ~workload:w.name ~seed:o.seed)
      tr
  end;
  Parallel.Pool.shutdown pool

(* {1 The parent: spawn, collect, aggregate} *)

type report = {
  exited_ok : bool;
  setup_s : float option;  (** spawn to "ready", as the parent saw it *)
  latencies : float list;
  wall_s : float;
  rss_mb : float;
  attempted : int;
  failed : int;
  digest : string;
  metrics : (string * (string * float)) list;  (** name, (unit, value) *)
  spans : string list list;
}

let spawn o (w : Workload.t) ~traced ~setup_only =
  let args =
    [ Sys.executable_name; "--child"; "--workload"; w.name; "--seed";
      string_of_int o.seed; "--root"; o.root ]
    @ (if o.size = Workload.Smoke then [ "--smoke" ] else [])
    @ (if traced then [ "--trace"; "1" ] else [])
    @ if setup_only then [ "--setup-only" ] else []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let r =
    ref
      {
        exited_ok = false; setup_s = None; latencies = []; wall_s = 0.; rss_mb = 0.;
        attempted = 0; failed = 0; digest = ""; metrics = []; spans = [];
      }
  in
  (try
     while true do
       let line = input_line ic in
       match String.split_on_char ' ' line with
       | [ "ready" ] -> r := { !r with setup_s = Some (now () -. t0) }
       | [ "op"; dt ] -> r := { !r with latencies = float_of_string dt :: !r.latencies }
       | [ "done"; wall; rss; attempted; failed; digest ] ->
           r :=
             {
               !r with
               wall_s = float_of_string wall;
               rss_mb = float_of_string rss;
               attempted = int_of_string attempted;
               failed = int_of_string failed;
               digest;
             }
       | [ "metric"; name; unit; v ] ->
           r := { !r with metrics = (name, (unit, float_of_string v)) :: !r.metrics }
       | "span" :: fields -> r := { !r with spans = fields :: !r.spans }
       | _ -> Printf.eprintf "unexpected line from the child: %s\n%!" line
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let finished = setup_only || !r.digest <> "" in
  let exited_ok = status = Unix.WEXITED 0 && !r.setup_s <> None && finished in
  if not exited_ok then Printf.eprintf "%s: a child process failed\n%!" w.name;
  { !r with exited_ok; metrics = List.rev !r.metrics; spans = List.rev !r.spans }

(* Nearest-rank percentile: always one of the samples, never an
   interpolation between two different ops. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median = percentile 0.5

(* Setup is cheap next to a pass on some workloads, so it gets its own
   samples: processes that set up and exit top the count up to this. *)
let setup_samples = 5

let end_to_end =
  [ ("setup_s", "s"); ("wall_s", "s"); ("op_p50_ms", "ms"); ("op_p90_ms", "ms");
    ("peak_rss_mb", "MB") ]

let json_result ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (Trace.json_float v) unit)
          metrics))

let run_workload o (w : Workload.t) =
  let started = now () in
  (* Start another pass only if one as long as the longest so far still
     ends within [--seconds]. *)
  let want_more k longest =
    match o.runs with
    | Some n -> k < n
    | None -> k = 0 || now () -. started +. longest <= o.seconds
  in
  let spawn = spawn o w in
  let rec passes k longest untraced traced =
    if not (want_more k longest) then (List.rev untraced, List.rev traced)
    else
      let t0 = now () in
      let u = spawn ~traced:false ~setup_only:false in
      let t = if o.trace then [ spawn ~traced:true ~setup_only:false ] else [] in
      passes (k + 1) (Float.max longest (now () -. t0)) (u :: untraced) (t @ traced)
  in
  let untraced, traced = passes 0 0. [] [] in
  let extra =
    if o.trace then []
    else
      List.init (max 0 (setup_samples - List.length untraced)) (fun _ ->
          spawn ~traced:false ~setup_only:true)
  in
  let full = untraced @ traced in
  let all = full @ extra in
  let attempted = List.fold_left (fun acc r -> acc + max 1 r.attempted) 0 full in
  let failed =
    List.fold_left
      (fun acc r -> acc + if r.exited_ok then r.failed else max 1 r.attempted)
      0 full
    + List.length (List.filter (fun r -> not r.exited_ok) extra)
  in
  let digests = List.sort_uniq compare (List.map (fun r -> r.digest) full) in
  let agree = List.length digests = 1 in
  if not agree then
    Printf.eprintf "%s: children disagree on the outputs (digests %s)\n%!" w.name
      (String.concat ", " digests);
  let correct = failed = 0 && agree && List.for_all (fun r -> r.exited_ok) all in
  let lats = List.concat_map (fun r -> r.latencies) untraced in
  let med f rs = median (List.map f rs) in
  Printf.printf "\n%s  seed %d  %s  nproc %d  pool %d domain%s\n" w.name o.seed
    (if o.size = Workload.Smoke then "smoke size" else "full size")
    nproc w.jobs
    (if w.jobs = 1 then "" else "s");
  let metrics =
    if not o.trace then begin
      let setups = List.filter_map (fun r -> r.setup_s) all in
      let values =
        [
          med Fun.id setups;
          med (fun r -> r.wall_s) untraced;
          1000. *. percentile 0.5 lats;
          1000. *. percentile 0.9 lats;
          med (fun r -> r.rss_mb) untraced;
        ]
      in
      let notes =
        [
          Printf.sprintf "median of %d set-ups (%d with no ops)" (List.length setups)
            (List.length extra);
          Printf.sprintf "median of %d fresh processes" (List.length untraced);
          Printf.sprintf "%d op samples, %d ops per process" (List.length lats)
            (match untraced with r :: _ -> r.attempted | [] -> 0);
          Printf.sprintf "%d samples beyond it"
            (List.length (List.filter (fun x -> x > percentile 0.9 lats) lats));
          "VmHWM at exit, median";
        ]
      in
      List.iteri
        (fun i ((name, unit), v) ->
          Printf.printf "  %-16s %14.4f %-4s %s\n" name v unit (List.nth notes i))
        (List.combine end_to_end values);
      List.map2 (fun (name, unit) v -> (name, v, unit)) end_to_end values
    end
    else begin
      let units =
        match traced with r :: _ -> List.map (fun (name, (unit, _)) -> (name, unit)) r.metrics | [] -> []
      in
      let layer name =
        med (fun r -> Option.fold ~none:nan ~some:snd (List.assoc_opt name r.metrics)) traced
      in
      let overhead = (med (fun r -> r.wall_s) traced /. med (fun r -> r.wall_s) untraced) -. 1. in
      (match List.rev traced with
      | last :: _ ->
          Printf.printf "  %-22s %6s %12s %12s %9s %9s %10s %10s\n" "span (last traced child)"
            "count" "total s" "self s" "minor gc" "major gc" "minor Mw" "promo Mw";
          List.iter
            (function
              | [ name; count; total; self; g0; g1; g2; g3 ] ->
                  Printf.printf "  %-22s %6s %12s %12s %9s %9s %10s %10s\n" name count total
                    self g0 g1 g2 g3
              | _ -> ())
            last.spans
      | [] -> ());
      let metrics =
        List.map (fun (name, unit) -> (name, layer name, unit)) units
        @ [ ("trace.overhead", overhead, "ratio") ]
      in
      Printf.printf "  per-layer metrics, median of %d traced processes:\n" (List.length traced);
      List.iter (fun (name, v, unit) -> Printf.printf "    %-32s %18.6f %s\n" name v unit) metrics;
      metrics
    end
  in
  Printf.printf "  %d of %d ops failed; outputs %s\n" failed attempted
    (if correct then "correct" else "NOT correct");
  let line = json_result ~correct ~attempted ~failed metrics in
  print_endline line;
  Option.iter
    (fun file ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
      Printf.fprintf oc
        "{\"workload\": %S, \"seed\": %d, \"trace\": %d, \"size\": %S, \"nproc\": %d, \"result\": %s}\n"
        w.name o.seed (if o.trace then 1 else 0)
        (if o.size = Workload.Smoke then "smoke" else "full")
        nproc line;
      close_out oc)
    o.append;
  correct

(* {1 Verify and list modes, in this process} *)

let verify_workload o (w : Workload.t) =
  let inputs = w.setup o.size ~seed:o.seed None in
  let pool = Parallel.Pool.create w.jobs in
  let lines, failures, notes = Verify.check ~seed:o.seed inputs (Workload.ops inputs pool) in
  Parallel.Pool.shutdown pool;
  List.iter (Printf.printf "note %s: %s\n" w.name) notes;
  let path = Workload.golden_path ~root:o.root w o.size ~seed:o.seed in
  let failures =
    match Workload.read_golden path with
    | Some g when Array.to_list g <> lines && not o.write_goldens ->
        failures @ [ "outputs differ from the golden " ^ path ]
    | _ -> failures
  in
  if failures = [] && o.write_goldens then Workload.write_golden path lines;
  Printf.printf "verify %s seed %d: %s\n%!" w.name o.seed
    (if failures = [] then Printf.sprintf "ok (%d ops)" (List.length lines)
     else "FAILED\n  " ^ String.concat "\n  " failures);
  failures = []

let list_workload o (w : Workload.t) =
  let inputs = w.setup o.size ~seed:o.seed None in
  let pool = Parallel.Pool.create 1 in
  Array.iter
    (fun (op : Workload.op) -> Printf.printf "%s\t%s\n" w.name op.label)
    (Workload.ops inputs pool);
  Parallel.Pool.shutdown pool;
  true

let () =
  let o = parse (List.tl (Array.to_list Sys.argv)) in
  if o.child then
    match o.workloads with
    | [ w ] -> run_child o w
    | _ -> die "--child takes exactly one --workload"
  else
    let each f = List.fold_left (fun ok w -> f o w && ok) true o.workloads in
    let ok =
      if o.list then each list_workload
      else if o.verify then each verify_workload
      else each run_workload
    in
    exit (if ok then 0 else 1)
