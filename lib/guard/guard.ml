(* The process-wide resource governor: one account for wall-clock,
   fuel, memory and cancellation, drawn on by every semi-decision
   procedure in the codebase. See guard.mli for the contract.

   Everything a worker domain touches is an Atomic: checkpoints are
   called concurrently from inside pool tasks, and a trip observed by
   one domain must be visible to all of them. The trip cell is
   compare-and-set so the *first* cause wins and stays put (sticky). *)

type cause = Deadline | Fuel | Memory | Cancelled

let cause_to_string = function
  | Deadline -> "deadline"
  | Fuel -> "fuel"
  | Memory -> "memory"
  | Cancelled -> "cancelled"

let pp_cause fmt c = Format.pp_print_string fmt (cause_to_string c)

type counters = {
  checkpoints : int;
  fuel_spent : int;
  elapsed_s : float;
  peak_heap_words : int;
}

type ('a, 'p) outcome =
  | Complete of 'a
  | Exhausted of { partial : 'p; cause : cause; progress : counters }

(* Trip state coded as an int so a single CAS decides the cause:
   0 = running, 1..4 = tripped. *)
let code_of_cause = function
  | Deadline -> 1
  | Fuel -> 2
  | Memory -> 3
  | Cancelled -> 4

let cause_of_code = function
  | 1 -> Deadline
  | 2 -> Fuel
  | 3 -> Memory
  | 4 -> Cancelled
  | _ -> invalid_arg "Guard.cause_of_code"

type t = {
  deadline : float option;  (* absolute gettimeofday *)
  max_heap_words : int option;
  fuel_limit : int option;
  fuel : int Atomic.t;  (* remaining balance; may go negative at the trip *)
  fuel_spent : int Atomic.t;
  cancel_token : bool Atomic.t;
  tripped : int Atomic.t;
  checkpoints : int Atomic.t;
  peak_heap : int Atomic.t;
  born : float;
}

let poll_mask = 63
let mem_mask = 31

let create ?deadline_s ?fuel ?max_heap_words ?cancel () =
  let now = Unix.gettimeofday () in
  {
    deadline = Option.map (fun s -> now +. s) deadline_s;
    max_heap_words;
    fuel_limit = fuel;
    fuel = Atomic.make (Option.value ~default:max_int fuel);
    fuel_spent = Atomic.make 0;
    cancel_token =
      (match cancel with Some token -> token | None -> Atomic.make false);
    tripped = Atomic.make 0;
    checkpoints = Atomic.make 0;
    peak_heap = Atomic.make 0;
    born = now;
  }

let unlimited () = create ()

let cancel g = Atomic.set g.cancel_token true
let cancelled g = Atomic.get g.cancel_token

let status g =
  match Atomic.get g.tripped with
  | 0 -> None
  | code -> Some (cause_of_code code)

(* First cause wins; later trips (e.g. a cancellation racing a deadline
   observed on another domain) keep the original verdict. *)
let trip g cause =
  ignore (Atomic.compare_and_set g.tripped 0 (code_of_cause cause));
  Some (cause_of_code (Atomic.get g.tripped))

let progress g =
  {
    checkpoints = Atomic.get g.checkpoints;
    fuel_spent = Atomic.get g.fuel_spent;
    elapsed_s = Unix.gettimeofday () -. g.born;
    peak_heap_words = Atomic.get g.peak_heap;
  }

let outcome g ~complete ~partial =
  match status g with
  | None -> Complete complete
  | Some cause -> Exhausted { partial; cause; progress = progress g }

(* ------------------------------------------------------------------ *)
(* Deterministic fault injection                                       *)
(* ------------------------------------------------------------------ *)

module Faults = struct
  type schedule = {
    seed : int;
    trip_period : int option;  (* every n-th guard checkpoint trips *)
    trip_cause : cause;
    (* IO faults, consulted only by the checkpoint snapshot layer (their
       counter is separate from checkpoints, so they never perturb the
       compute-path schedule of a seed). *)
    torn_period : int option;  (* every k-th snapshot write is torn *)
    fsync_fail_period : int option;  (* every m-th fsync raises ENOSPC *)
    corrupt_period : int option;  (* every n-th snapshot read corrupts *)
  }

  let none =
    {
      seed = 0;
      trip_period = None;
      trip_cause = Deadline;
      torn_period = None;
      fsync_fail_period = None;
      corrupt_period = None;
    }

  (* splitmix-style avalanche; the derivation only needs well-spread
     bits, not cryptographic quality. *)
  let mix x =
    let x = x * 0x1E3779B97F4A7C15 in
    let x = x lxor (x lsr 30) in
    let x = x * 0x3F58476D1CE4E5B9 in
    let x = x lxor (x lsr 27) in
    x land max_int

  let of_seed seed =
    if seed = 0 then none
    else
      let h k = mix (seed + (k * 0x1000003)) in
      (* [kinds] is drawn from 1..7 and its 4-bit turns the forced trips
         on. Its two low bits select nothing; the draw keeps its range so
         that every seed keeps its trip and IO schedule. *)
      let kinds = 1 + (h 0 mod 7) in
      {
        seed;
        trip_period =
          (if kinds land 4 <> 0 then Some (5 + (h 3 mod 50)) else None);
        trip_cause = (if h 4 land 1 = 0 then Deadline else Memory);
        (* IO faults draw on fresh hash lanes (h 5..h 8): existing seeds
           keep their historical compute-fault schedules bit-for-bit. A
           nonempty subset of {torn, fsync, corrupt} is active. *)
        torn_period =
          (let io_kinds = 1 + (h 5 mod 7) in
           if io_kinds land 1 <> 0 then Some (2 + (h 6 mod 5)) else None);
        fsync_fail_period =
          (let io_kinds = 1 + (h 5 mod 7) in
           if io_kinds land 2 <> 0 then Some (2 + (h 7 mod 5)) else None);
        corrupt_period =
          (let io_kinds = 1 + (h 5 mod 7) in
           if io_kinds land 4 <> 0 then Some (2 + (h 8 mod 5)) else None);
      }

  let with_io ?torn_every ?fsync_fail_every ?corrupt_every s =
    let pick override current =
      match override with
      | Some p -> if p <= 0 then None else Some p
      | None -> current
    in
    {
      s with
      torn_period = pick torn_every s.torn_period;
      fsync_fail_period = pick fsync_fail_every s.fsync_fail_period;
      corrupt_period = pick corrupt_every s.corrupt_period;
    }

  let from_env () =
    match Sys.getenv_opt "FRONTIER_FAULTS" with
    | None -> none
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some seed -> of_seed seed
        | None -> none)

  (* The installed schedule plus process-wide checkpoint / IO counters.
     The counters restart at [install] so a given seed replays the same
     fault positions. *)
  let state = Atomic.make none
  let checks = Atomic.make 0
  let io_ops = Atomic.make 0

  let install schedule =
    Atomic.set checks 0;
    Atomic.set io_ops 0;
    Atomic.set state schedule

  let current () = Atomic.get state
  let active () = (Atomic.get state).seed <> 0

  let describe s =
    let parts =
      List.filter_map Fun.id
        [
          Option.map
            (fun p ->
              Printf.sprintf "forced %s trip every %d checkpoints"
                (cause_to_string s.trip_cause)
                p)
            s.trip_period;
          Option.map
            (Printf.sprintf "torn snapshot write every %d IO writes")
            s.torn_period;
          Option.map
            (Printf.sprintf "ENOSPC fsync every %d IO fsyncs")
            s.fsync_fail_period;
          Option.map
            (Printf.sprintf "corrupt snapshot read every %d IO reads")
            s.corrupt_period;
        ]
    in
    if parts = [] then "no fault injection" else String.concat ", " parts

  let forced_trip () =
    let s = Atomic.get state in
    if s.seed = 0 then None
    else
      let n = 1 + Atomic.fetch_and_add checks 1 in
      match s.trip_period with
      | Some p when n mod p = 0 -> Some s.trip_cause
      | Some _ | None -> None

  (* One tick per checkpoint-layer IO operation, whatever its kind: a
     schedule's periods land on a shared deterministic counter, and a
     fault only fires when its period hits on an operation of the
     matching kind. Compute-path checkpoints never move this counter. *)
  let io_fate kind =
    let s = Atomic.get state in
    if
      s.torn_period = None && s.fsync_fail_period = None
      && s.corrupt_period = None
    then `Ok
    else
      let n = 1 + Atomic.fetch_and_add io_ops 1 in
      let hits = function Some p -> n mod p = 0 | None -> false in
      match kind with
      | `Write -> if hits s.torn_period then `Torn else `Ok
      | `Fsync -> if hits s.fsync_fail_period then `Enospc else `Ok
      | `Read -> if hits s.corrupt_period then `Corrupt else `Ok
end

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                         *)
(* ------------------------------------------------------------------ *)

let check g =
  match status g with
  | Some _ as tripped -> tripped
  | None -> (
      let n = Atomic.fetch_and_add g.checkpoints 1 in
      if Atomic.get g.cancel_token then trip g Cancelled
      else
        match Faults.forced_trip () with
        | Some cause -> trip g cause
        | None -> (
            match g.deadline with
            | Some d when Unix.gettimeofday () > d -> trip g Deadline
            | _ -> (
                match g.max_heap_words with
                | Some ceiling when n land mem_mask = 0 ->
                    let words = (Gc.quick_stat ()).Gc.heap_words in
                    let rec raise_peak () =
                      let seen = Atomic.get g.peak_heap in
                      if
                        words > seen
                        && not
                             (Atomic.compare_and_set g.peak_heap seen words)
                      then raise_peak ()
                    in
                    raise_peak ();
                    if words > ceiling then trip g Memory else None
                | _ -> None)))

let spend g n =
  if n < 0 then invalid_arg "Guard.spend: negative amount";
  ignore (Atomic.fetch_and_add g.fuel_spent n);
  match g.fuel_limit with
  | None -> check g
  | Some _ ->
      let remaining = Atomic.fetch_and_add g.fuel (-n) - n in
      if remaining < 0 then trip g Fuel else check g
