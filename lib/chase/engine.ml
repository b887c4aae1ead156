open Logic

(* Provenance is recorded per derived atom in a hash table (hash-consed
   term ids make [Atom.hash] cheap and well-spread); the table is only
   ever mutated by the coordinator, in deterministic production order. *)
module Atom_tbl = Hashtbl.Make (struct
  type t = Atom.t

  let equal = Atom.equal
  let hash = Atom.hash
end)

type run = {
  theory : Theory.t;
  initial : Fact_set.t;
  stages : Fact_set.t array;
  saturated : bool;
  interrupted : Guard.cause option;
      (* Some: the guard tripped (the max_atoms compat budget trips it
         with [Fuel]); the stages are the sound prefix computed before
         the trip — an aborted sweep contributes nothing *)
  guard : Guard.t;
  info : (int * (Tgd.t * Homomorphism.mapping) list ref) Atom_tbl.t;
      (* derived atoms: first stage, creating applications; the list is
         mutated in place so a rediscovery costs one table probe *)
  stats : Saturation.Stats.t;
  stage_stats : Saturation.Stats.round array;
      (* one record per committed sweep of this segment, in stage order *)
}

(* The semi-naive trigger enumeration of a rule splits into independent
   rounds: one per body-atom position seeded by a delta fact, one per
   domain-variable position seeded by a new domain element, plus the
   one-shot firing of fully ground rules. Each round is a self-contained
   homomorphism search over read-only fact sets, which is exactly the
   unit of work the parallel engine distributes across domains. *)
type part = Delta_seed of int | Dom_seed of int | Ground

let rule_parts rule ~old_is_empty =
  let m = List.length (Tgd.body rule) in
  let d = List.length (Tgd.dom_vars rule) in
  let delta_parts = List.init m (fun k -> Delta_seed k) in
  if d > 0 then delta_parts @ List.init d (fun i -> Dom_seed i)
  else if m = 0 && old_is_empty then
    (* A fully ground rule like (loop): fires exactly once, at stage 1. *)
    delta_parts @ [ Ground ]
  else delta_parts

(* Enumerate one round of the triggers of [rule] that use at least one
   "new" ingredient: a body atom in [delta], or a domain-variable binding
   to a new domain element. The partition (first delta body atom / first
   new domain element) makes the enumeration exact, without duplicates.
   The production order names fresh nulls (Definition 4), so these
   searches run on the register machine, whose enumeration order the
   differentials pin. *)
let part_triggers rule part ~old_facts ~delta ~full ~old_dom_list
    ~new_dom_list ~full_dom_list f =
  let body = Array.of_list (Tgd.body rule) in
  let m = Array.length body in
  let dom_vars = Tgd.dom_vars rule in
  let flexible = Term.Set.of_list (Tgd.body_vars rule) in
  match part with
  | Delta_seed k ->
      let pattern =
        List.init m (fun j ->
            let target =
              if j = k then delta else if j < k then old_facts else full
            in
            (body.(j), target))
      in
      let domain_bindings = List.map (fun v -> (v, full_dom_list)) dom_vars in
      Homomorphism.iter_multi ~flexible ~pattern ~domain_bindings f
  | Dom_seed i ->
      let pattern = Array.to_list (Array.map (fun a -> (a, old_facts)) body) in
      let domain_bindings =
        List.mapi
          (fun j v ->
            let pool =
              if j = i then new_dom_list
              else if j < i then old_dom_list
              else full_dom_list
            in
            (v, pool))
          dom_vars
      in
      Homomorphism.iter_multi ~flexible ~pattern ~domain_bindings f
  | Ground -> f Term.Map.empty

(* Abort marker for a guard trip observed inside a task's trigger
   enumeration: the task catches it and returns its partial local list,
   which the coordinator then discards wholesale (the guard is sticky,
   so the post-sweep status check sees the trip). *)
exception Sweep_aborted

let checkpoint_kind = "chase"

(* Snapshot encoding. A chase snapshot at (absolute) stage r holds the
   theory, the initial instance, one delta line per committed stage
   1..r, and per derived atom its *creating* rule application — enough
   to rebuild [stages], [info] and the semi-naive cursors exactly.
   Everything goes through [Checkpoint.Codec], so hash-consed ids never
   touch the disk; re-interning on decode plus the Skolem naming
   convention (Definition 4, via [Tgd.make]) is what makes the resumed
   chase bit-identical (Observation 8). Rediscovery derivations beyond
   the creating one are deliberately dropped: [atom_frontier],
   [birth_atom] and [rule_counts] only consult the creating application,
   and carrying every rediscovery would multiply the snapshot size. *)
let encode_state ~round ~theory ~max_depth ~max_atoms ~stages ~deltas ~info =
  let module Codec = Checkpoint.Codec in
  let rules = Array.of_list (Theory.rules theory) in
  let rule_idx r =
    let n = Array.length rules in
    let rec go i = if i >= n then -1 else if rules.(i) == r then i else go (i + 1) in
    go 0
  in
  let stage0 = List.hd (List.rev stages) in
  let prov =
    Atom_tbl.fold
      (fun atom (st, ders) acc ->
        match List.rev !ders with
        | [] -> acc
        | (rule, sigma) :: _ ->
            let i = rule_idx rule in
            if i < 0 then acc
            else
              Codec.concat
                [
                  Codec.atom_to_string atom;
                  string_of_int st;
                  string_of_int i;
                  Codec.mapping_to_string sigma;
                ]
              :: acc)
      info []
  in
  {
    Checkpoint.Snapshot.kind = checkpoint_kind;
    round;
    meta =
      [
        ("max_depth", string_of_int max_depth);
        ("max_atoms", string_of_int max_atoms);
      ];
    sections =
      [
        ("theory", Codec.theory_to_lines theory);
        ("stage0", List.map Codec.atom_to_string (Fact_set.atoms stage0));
        ( "deltas",
          List.rev_map (Codec.list_to_string Codec.atom_to_string) deltas );
        ("prov", prov);
      ];
  }

(* [run_from] is the engine body, parameterized by the resume state: a
   fresh run passes [stages0 = [initial]], no deltas, an empty info
   table; [resume] passes the decoded snapshot state. [base_round] is
   derived from the delta count, so stage numbering, the [max_depth]
   cutoff, and the checkpoint cadence all continue in absolute rounds. *)
let run_from ?pool ?guard ?(max_depth = 50)
    ?(max_atoms = 200_000) ?checkpoint:checkpoint_sink ~stages0 ~deltas0
    ~info theory =
  let guard =
    match guard with Some g -> g | None -> Guard.unlimited ()
  in
  let pool =
    match pool with Some p -> p | None -> Parallel.Pool.create 1
  in
  let initial = List.hd (List.rev stages0) in
  let base_round = List.length deltas0 in
  let stages = ref stages0 in
  let deltas = ref deltas0 in
  let full = ref (List.hd stages0) in
  let old_facts =
    ref
      (match stages0 with
      | _ :: prev :: _ -> prev
      | _ -> Fact_set.empty)
  in
  let old_dom = ref (Fact_set.domain !old_facts) in
  (* A client-level stop that is not a guard trip: the historical
     [max_atoms] atom cap, expressed as the unified fuel cause. *)
  let capped = ref None in
  (* Cost hint for the dispatch gate: consecutive semi-naive sweeps have
     strongly correlated costs, so the previous sweep's wall time is an
     honest estimate for the next one (0. = no history, let the gate
     probe). An inline sweep measures the sequential cost exactly; a
     fanned-out one underestimates it, which only reinforces the
     (correct) fan-out decision. *)
  let last_sweep_s = ref 0. in
  (* One kernel round per chase stage: the worklist item is the stage's
     delta, the step is the parallel semi-naive sweep, and the kernel owns
     the boundary checkpoint, the aborted-sweep discard, and the totals. *)
  let sweep ~round delta =
    (* Force the lazy indexes of the shared fact sets *before* fanning out:
       workers only ever read them. *)
    ignore (Fact_set.domain !old_facts);
    ignore (Fact_set.domain delta);
    let full_dom = Fact_set.domain !full in
    let new_dom = Term.Set.diff full_dom !old_dom in
    let old_dom_list = Term.Set.elements !old_dom in
    let new_dom_list = Term.Set.elements new_dom in
    let full_dom_list = Term.Set.elements full_dom in
    (* One task per (rule, semi-naive round), in rule-major order. Each
       task accumulates its productions locally (newest first, like the
       sequential engine); the deterministic slot-ordered merge below
       rebuilds the exact production list the sequential engine computes,
       so stages, saturation flags and provenance are independent of the
       domain count. *)
    let old_is_empty = Fact_set.is_empty !old_facts in
    let tasks =
      Array.of_list
        (List.concat_map
           (fun rule ->
             List.map (fun part -> (rule, part))
               (rule_parts rule ~old_is_empty))
           (Theory.rules theory))
    in
    let t_sweep = Unix.gettimeofday () in
    let est_s = !last_sweep_s in
    let locals =
      Parallel.Pool.map_array ~guard
        ?est_s:(if est_s > 0. then Some est_s else None)
        pool
        (fun (rule, part) ->
          let local = ref [] in
          let triggers = ref 0 in
          (* Guard checkpoints every [poll_mask]+1 triggers: a trip
             aborts this task's enumeration early; the coordinator then
             discards the whole sweep (stages stay an exact prefix). *)
          (try
             part_triggers rule part ~old_facts:!old_facts ~delta
               ~full:!full ~old_dom_list ~new_dom_list ~full_dom_list
               (fun sigma ->
                 incr triggers;
                 if
                   !triggers land Guard.poll_mask = 0
                   && Guard.check guard <> None
                 then raise Sweep_aborted;
                 List.iter
                   (fun atom -> local := (atom, rule, sigma) :: !local)
                   (Tgd.apply rule sigma))
           with Sweep_aborted -> ());
          (!local, !triggers))
        tasks
    in
    last_sweep_s := Unix.gettimeofday () -. t_sweep;
    let triggers =
      Array.fold_left (fun acc (_, t) -> acc + t) 0 locals
    in
    match Guard.status guard with
    | Some _ ->
        (* The sweep was aborted mid-enumeration: its partial
           productions are unsound as a stage, so discard them — the
           recorded stages remain exactly [Ch_0 .. Ch_i] for the last
           completed sweep [i]. *)
        Saturation.discard
    | None ->
        (* Partition into genuinely new atoms and rediscoveries; record all
           derivations either way, iterating the per-task locals in the
           sequential engine's production order (tasks last-to-first, each
           local newest-first — the order the former concatenated list had).
           The info table dedups: an atom lands in [fresh] exactly once, at
           its first production. *)
        let n_produced = ref 0 in
        let fresh = ref [] in
        for i = Array.length locals - 1 downto 0 do
          let local, _ = locals.(i) in
          List.iter
            (fun (atom, rule, sigma) ->
              incr n_produced;
              match Atom_tbl.find_opt info atom with
              | Some (_, ders) -> ders := (rule, sigma) :: !ders
              | None ->
                  if Fact_set.mem atom initial then ()
                  else begin
                    fresh := atom :: !fresh;
                    Atom_tbl.add info atom
                      (round, ref [ (rule, sigma) ])
                  end)
            local
        done;
        (* A rediscovered atom from an earlier stage cannot shift its stage:
           every non-initial atom of [full] is already recorded in [info], so
           it takes the rediscovery branch above and never reaches [fresh]. *)
        let delta' = Fact_set.of_set (Atom.Set.of_list !fresh) in
        let fresh_atoms = Fact_set.cardinal delta' in
        let tally =
          Saturation.Stats.tally ~expanded:triggers ~generated:!n_produced
            ~admitted:fresh_atoms ~deduped:(!n_produced - fresh_atoms) ()
        in
        old_facts := !full;
        old_dom := full_dom;
        (* [fresh] contains no atom of [full]: every non-initial atom of
           [full] is in [info] and initial atoms are filtered above. *)
        full := Fact_set.union_disjoint !full delta';
        stages := !full :: !stages;
        if Fact_set.is_empty delta' then begin
          (* Drop the stabilized duplicate stage; the kernel sees an empty
             frontier and reports [Saturated]. The round's stats entry is
             kept: the fixpoint-confirming sweep did real
             trigger-enumeration work even though it derived nothing. *)
          stages := List.tl !stages;
          { Saturation.next = []; tally; stop = false; commit = true }
        end
        else if Fact_set.cardinal !full > max_atoms then begin
          (* The historical atom cap: the completed stage is kept, the
             run stops — no fuel is drawn for the capped stage. *)
          capped := Some Guard.Fuel;
          deltas := !fresh :: !deltas;
          { Saturation.next = []; tally; stop = true; commit = true }
        end
        else begin
          (* Draw the stage's fresh atoms from the guard's fuel account; a
             fuel (or boundary-sampled deadline/memory) trip keeps the
             completed stage and stops the run (the kernel consults the
             sticky trip state right after the commit). *)
          ignore (Guard.spend guard fresh_atoms);
          deltas := !fresh :: !deltas;
          { Saturation.next = [ delta' ]; tally; stop = false; commit = true }
        end
  in
  (* The per-stage records: one per committed sweep, timed from step
     entry to return. *)
  let per_stage = ref [] in
  let step ~round delta =
    let t0 = Unix.gettimeofday () in
    let res = sweep ~round delta in
    if res.Saturation.commit then
      per_stage :=
        {
          Saturation.Stats.index = round;
          tally = res.Saturation.tally;
          wall_s = Unix.gettimeofday () -. t0;
        }
        :: !per_stage;
    res
  in
  let checkpoint =
    Option.map
      (fun sink ->
        ( sink,
          fun ~round _frontier ->
            encode_state ~round ~theory ~max_depth ~max_atoms
              ~stages:!stages ~deltas:!deltas ~info ))
      checkpoint_sink
  in
  let init =
    match deltas0 with
    | [] -> [ initial ]
    | last :: _ -> [ Fact_set.of_list last ]
  in
  let verdict, stats =
    Saturation.run ~guard ~max_rounds:max_depth ~base_round ?checkpoint ~init
      ~step ()
  in
  let saturated, interrupted =
    match verdict with
    | Saturation.Saturated -> (true, None)
    | Saturation.Stopped -> (false, !capped) (* None for plain max_depth *)
    | Saturation.Tripped cause -> (false, Some cause)
  in
  {
    theory;
    initial;
    stages = Array.of_list (List.rev !stages);
    saturated;
    interrupted;
    guard;
    info;
    stats;
    stage_stats = Array.of_list (List.rev !per_stage);
  }

let run ?pool ?guard ?max_depth ?max_atoms ?checkpoint theory initial =
  run_from ?pool ?guard ?max_depth ?max_atoms ?checkpoint
    ~stages0:[ initial ] ~deltas0:[]
    ~info:(Atom_tbl.create (1 lsl 18))
    theory

(* Snapshot decoding: the exact inverse of [encode_state]. Raises
   [Invalid_argument] on a snapshot of another kind and
   [Checkpoint.Codec.Error] on malformed content — both only reachable
   on a checksum-valid file, i.e. a version-skew or writer bug, never
   plain corruption (the checksum rejects that upstream). *)
let decode_snapshot snap =
  let module S = Checkpoint.Snapshot in
  let module Codec = Checkpoint.Codec in
  if snap.S.kind <> checkpoint_kind then
    invalid_arg
      (Printf.sprintf "Engine.resume: %S snapshot, expected %S" snap.S.kind
         checkpoint_kind);
  let theory = Codec.theory_of_lines (S.section snap "theory") in
  let stage0 =
    Fact_set.of_list
      (List.map Codec.atom_of_string (S.section snap "stage0"))
  in
  let deltas =
    List.map
      (Codec.list_of_string Codec.atom_of_string)
      (S.section snap "deltas")
  in
  let rules = Array.of_list (Theory.rules theory) in
  let info = Atom_tbl.create (1 lsl 18) in
  List.iter
    (fun line ->
      match Codec.fields line with
      | [ a; st; i; m ] ->
          let atom = Codec.atom_of_string a in
          let st = Codec.int_of_string st in
          let i = Codec.int_of_string i in
          if i < 0 || i >= Array.length rules then
            raise (Codec.Error "provenance rule index out of range");
          Atom_tbl.replace info atom
            (st, ref [ (rules.(i), Codec.mapping_of_string m) ])
      | _ -> raise (Codec.Error "bad provenance line"))
    (S.section snap "prov");
  let stages =
    List.fold_left
      (fun acc delta ->
        Fact_set.union_disjoint (List.hd acc) (Fact_set.of_list delta) :: acc)
      [ stage0 ] deltas
  in
  (theory, stages, List.rev deltas, info)

let resume ?pool ?guard ?max_depth ?max_atoms ?checkpoint snap =
  let module S = Checkpoint.Snapshot in
  let theory, stages0, deltas0, info = decode_snapshot snap in
  let max_depth =
    match max_depth with
    | Some d -> d
    | None -> Option.value ~default:50 (S.meta_int snap "max_depth")
  in
  let max_atoms =
    match max_atoms with
    | Some a -> a
    | None -> Option.value ~default:200_000 (S.meta_int snap "max_atoms")
  in
  run_from ?pool ?guard ~max_depth ~max_atoms ?checkpoint ~stages0 ~deltas0
    ~info theory

let theory r = r.theory
let initial r = r.initial
let kernel_stats r = r.stats
let stage_stats r = r.stage_stats
let depth r = Array.length r.stages - 1
let saturated r = r.saturated
let interrupted r = r.interrupted
let guard r = r.guard

let outcome r =
  if r.saturated then Guard.Complete r
  else
    let cause =
      match r.interrupted with
      | Some cause -> cause
      | None -> Guard.Fuel (* the max_depth compat budget: depth fuel *)
    in
    Guard.Exhausted
      { partial = r; cause; progress = Guard.progress r.guard }

let stage r i =
  if i < 0 then invalid_arg "Engine.stage: negative index"
  else if i <= depth r then r.stages.(i)
  else if r.saturated then r.stages.(depth r)
  else
    invalid_arg
      (Printf.sprintf
         "Engine.stage: stage %d not computed (depth %d, not saturated)" i
         (depth r))

let result r = r.stages.(depth r)

let new_at_stage r i =
  if i = 0 then Fact_set.atoms r.stages.(0)
  else if i <= depth r then
    Fact_set.atoms (Fact_set.diff r.stages.(i) r.stages.(i - 1))
  else []

let stage_of_atom r atom =
  if Fact_set.mem atom r.initial then Some 0
  else
    match Atom_tbl.find_opt r.info atom with
    | Some (st, _) when Fact_set.mem atom (result r) -> Some st
    | Some _ | None -> None

let derivations r atom =
  match Atom_tbl.find_opt r.info atom with
  | Some (_, ders) -> !ders
  | None -> []

let atom_frontier r atom =
  match derivations r atom with
  | [] -> None
  | ders ->
      (* Derivations are prepended as they are found, so the *creating*
         application is the last element. Later re-derivations (e.g. a
         Datalog rule re-proving an existential atom) may have different
         frontiers; Observation 9's well-definedness is about creating
         applications only. *)
      let rule, sigma = List.nth ders (List.length ders - 1) in
      Some
        (List.fold_left
           (fun acc v -> Term.Set.add (Term.Map.find v sigma) acc)
           Term.Set.empty (Tgd.frontier rule))

let invented_terms r =
  Term.Set.diff (Fact_set.domain (result r)) (Fact_set.domain r.initial)

let birth_atom r term =
  if not (Term.Set.mem term (invented_terms r)) then None
  else
    (* The join index answers "which atoms mention [term]" directly —
       the result set was scanned in full per invented term before.
       [atoms_with_term] returns [Atom.Set] order, i.e. exactly the
       order the old [List.filter] over [atoms] produced. *)
    let candidates = Fact_set.atoms_with_term (result r) term in
    List.find_opt
      (fun atom ->
        match atom_frontier r atom with
        | Some fr -> not (Term.Set.mem term fr)
        | None -> false)
      candidates

let rule_counts r =
  let counts = Hashtbl.create 16 in
  Atom_tbl.iter
    (fun _ (_, ders) ->
      match List.rev !ders with
      | (rule, _) :: _ ->
          let name =
            match Tgd.name rule with "" -> "(unnamed)" | n -> n
          in
          Hashtbl.replace counts name
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts name))
      | [] -> ())
    r.info;
  Hashtbl.fold (fun name n acc -> (name, n) :: acc) counts []
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
