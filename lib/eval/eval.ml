open Logic

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

type counters = { plans : int; seeks : int; gallops : int; emitted : int }

let c_plans = Atomic.make 0
let c_seeks = Atomic.make 0
let c_gallops = Atomic.make 0
let c_emitted = Atomic.make 0

let counters () =
  {
    plans = Atomic.get c_plans;
    seeks = Atomic.get c_seeks;
    gallops = Atomic.get c_gallops;
    emitted = Atomic.get c_emitted;
  }

let reset_counters () =
  Atomic.set c_plans 0;
  Atomic.set c_seeks 0;
  Atomic.set c_gallops 0;
  Atomic.set c_emitted 0

let tuple_compare = List.compare Term.compare

(* ------------------------------------------------------------------ *)
(* Plan compilation                                                    *)
(* ------------------------------------------------------------------ *)

(* A compiled pattern atom: the key order [kpos] is a permutation of the
   argument positions — rigid slots (constants, init-bound variables,
   closed functional terms) first, then variable slots by elimination
   level. Rows of the relation, sorted lexicographically along [kpos],
   make every frontier of the join a contiguous range. *)
type patom = {
  rel : Symbol.t;
  arity : int;
  kpos : int array;
  klev : int array;  (* level bound at key column k; -1 = rigid *)
  kid : int array;  (* term id expected at rigid key columns; -1 else *)
}

type compiled = {
  nfree : int;
  out_levels : int array;  (* answer slot -> its level in the order *)
  nvars : int;
  order : Term.t array;  (* level -> variable *)
  patoms : patom array;
  parts : int array array;  (* level -> indices of atoms binding it *)
}

(* A plan always keeps the pieces the register-machine search needs, so
   a query the leapfrog compiler declines still runs (see [run_fallback]). *)
type plan = {
  p_init : Term.t Term.Map.t;
  p_flexible : Term.Set.t;
  p_pattern : Atom.t list;
  p_out : Term.t list;  (* unbound answer variables, emission order *)
  p_compiled : compiled option;
}

exception Not_compilable

let compile_body ~init ~flexible ~out atoms =
  try
    if atoms = [] then raise Not_compilable;
    (* Classify each argument once: [`Rigid id] matches by hash-consed
       identity, [`Var v] binds at [v]'s level. An argument that is
       neither (a functional term with a bindable variable inside) needs
       structural matching the sorted join cannot do — decline. *)
    let classify (t : Term.t) =
      match Term.Map.find_opt t init with
      | Some image -> `Rigid image.Term.id
      | None ->
          if Term.Set.mem t flexible then `Var t
          else if
            List.exists (fun v -> Term.Set.mem v flexible) (Term.vars t)
          then raise Not_compilable
          else `Rigid t.Term.id
    in
    let classified =
      List.map
        (fun a -> (a, List.map classify (Atom.args a)))
        atoms
    in
    (* Occurrence stats (count, first occurrence) per variable, plus the
       atoms each variable appears in, for the connectivity heuristic. *)
    let occ : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
    let var_atoms : (int, int list) Hashtbl.t = Hashtbl.create 16 in
    let tick = ref 0 in
    List.iteri
      (fun ai (_, args) ->
        List.iter
          (function
            | `Var (v : Term.t) ->
                incr tick;
                let n, first =
                  Option.value ~default:(0, !tick)
                    (Hashtbl.find_opt occ v.Term.id)
                in
                Hashtbl.replace occ v.Term.id (n + 1, first);
                let atoms_of =
                  Option.value ~default:[]
                    (Hashtbl.find_opt var_atoms v.Term.id)
                in
                if not (List.mem ai atoms_of) then
                  Hashtbl.replace var_atoms v.Term.id (ai :: atoms_of)
            | `Rigid _ -> ())
          args)
      classified;
    (* An answer variable that never occurs as a direct argument is not
       coverable by the join. *)
    List.iter
      (fun (v : Term.t) ->
        if not (Hashtbl.mem occ v.Term.id) then raise Not_compilable)
      out;
    let all_vars =
      List.concat_map
        (fun (_, args) ->
          List.filter_map
            (function `Var (v : Term.t) -> Some v | `Rigid _ -> None)
            args)
        classified
      |> List.sort_uniq Term.compare
    in
    (* Connectivity-greedy elimination order: start from the
       most-occurring variable, then always pick a variable sharing an
       atom with the already-ordered prefix (most shared atoms first,
       then occurrence count, then first occurrence). An order that
       chased answer variables first instead would enumerate cross
       products of unconnected candidates — |V|^2 work on a two-step
       path query whose join has |E| rows. *)
    let chosen : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let touched : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    (* atom index -> touched once one of its variables is ordered *)
    let shared (v : Term.t) =
      List.fold_left
        (fun n ai -> if Hashtbl.mem touched ai then n + 1 else n)
        0
        (Hashtbl.find var_atoms v.Term.id)
    in
    let pick () =
      let best = ref None in
      List.iter
        (fun (v : Term.t) ->
          if not (Hashtbl.mem chosen v.Term.id) then begin
            let n, first = Hashtbl.find occ v.Term.id in
            let key = (shared v, n, -first) in
            match !best with
            | Some (bkey, _) when compare key bkey <= 0 -> ()
            | _ -> best := Some (key, v)
          end)
        all_vars;
      match !best with
      | Some (_, v) ->
          Hashtbl.replace chosen v.Term.id ();
          List.iter
            (fun ai -> Hashtbl.replace touched ai ())
            (Hashtbl.find var_atoms v.Term.id);
          v
      | None -> assert false
    in
    let order = Array.init (List.length all_vars) (fun _ -> pick ()) in
    let nvars = Array.length order in
    let nfree = List.length out in
    let level : (int, int) Hashtbl.t = Hashtbl.create 16 in
    Array.iteri
      (fun i (v : Term.t) -> Hashtbl.replace level v.Term.id i)
      order;
    let patoms =
      Array.of_list
        (List.map
           (fun (a, args) ->
             let arity = Atom.arity a in
             let args = Array.of_list args in
             let keys =
               Array.init arity (fun pos ->
                   match args.(pos) with
                   | `Rigid id -> (-1, pos, id)
                   | `Var (v : Term.t) ->
                       (Hashtbl.find level v.Term.id, pos, -1))
             in
             Array.sort
               (fun (l1, p1, _) (l2, p2, _) ->
                 if l1 <> l2 then Int.compare l1 l2 else Int.compare p1 p2)
               keys;
             {
               rel = Atom.rel a;
               arity;
               kpos = Array.map (fun (_, p, _) -> p) keys;
               klev = Array.map (fun (l, _, _) -> l) keys;
               kid = Array.map (fun (_, _, id) -> id) keys;
             })
           classified)
    in
    let parts =
      Array.init nvars (fun lev ->
          let ps = ref [] in
          Array.iteri
            (fun i pa ->
              if Array.exists (fun l -> l = lev) pa.klev then
                ps := i :: !ps)
            patoms;
          Array.of_list (List.rev !ps))
    in
    if Array.exists (fun ps -> Array.length ps = 0) parts then
      raise Not_compilable;
    let out_levels =
      Array.of_list
        (List.map (fun (v : Term.t) -> Hashtbl.find level v.Term.id) out)
    in
    Some { nfree; out_levels; nvars; order; patoms; parts }
  with Not_compilable -> None

let compile_pieces ~init ~flexible ~free atoms =
  let out = List.filter (fun v -> not (Term.Map.mem v init)) free in
  {
    p_init = init;
    p_flexible = flexible;
    p_pattern = atoms;
    p_out = out;
    p_compiled = compile_body ~init ~flexible ~out atoms;
  }

module Plan = struct
  type t = plan

  let compile ?(init = Term.Map.empty) q =
    compile_pieces ~init ~flexible:(Cq.var_set q) ~free:(Cq.free q)
      (Cq.atoms q)

  let compiled p = p.p_compiled <> None

  let order p =
    match p.p_compiled with
    | Some c -> Array.to_list c.order
    | None -> []

  let pp ppf p =
    match p.p_compiled with
    | None -> Fmt.pf ppf "<fallback plan: %d atoms>" (List.length p.p_pattern)
    | Some c ->
        Fmt.pf ppf "<leapfrog plan: %d atoms, order [%a], %d answer slots>"
          (Array.length c.patoms)
          Fmt.(array ~sep:(any " ") Term.pp)
          c.order c.nfree
end

(* ------------------------------------------------------------------ *)
(* Prepared instances: sorted column views                             *)
(* ------------------------------------------------------------------ *)

module Prepared = struct
  type rel_rows = { nrows : int; ids : int array (* row-major *) }

  type t = {
    fs : Fact_set.t;
    lock : Mutex.t;
        (* serializes the lazy builds below, so one view can be shared
           across pool workers; the finished arrays are read-only *)
    rows : (int, rel_rows) Hashtbl.t;  (* Symbol.id -> matrix *)
    orders : (string, int array) Hashtbl.t;
        (* (Symbol.id, kpos) -> row permutation sorted along kpos *)
  }

  let make fs =
    {
      fs;
      lock = Mutex.create ();
      rows = Hashtbl.create 16;
      orders = Hashtbl.create 16;
    }

  let fact_set t = t.fs

  let rel_rows_unlocked t rel arity =
    let key = Symbol.id rel in
    match Hashtbl.find_opt t.rows key with
    | Some r -> r
    | None ->
        let buf = ref (Array.make 1024 0) in
        let n = ref 0 in
        let push id =
          if !n = Array.length !buf then begin
            let bigger = Array.make (2 * !n) 0 in
            Array.blit !buf 0 bigger 0 !n;
            buf := bigger
          end;
          !buf.(!n) <- id;
          incr n
        in
        Fact_set.iter_rows t.fs rel (fun _atoms ids row ->
            if arity = 0 then push 0
            else
              for p = 0 to arity - 1 do
                push ids.((row * arity) + p)
              done);
        let width = max arity 1 in
        let r = { nrows = !n / width; ids = Array.sub !buf 0 !n } in
        Hashtbl.replace t.rows key r;
        r

  let rel_rows t rel arity =
    Mutex.protect t.lock (fun () -> rel_rows_unlocked t rel arity)

  let order t rel arity kpos =
    let key =
      String.concat ","
        (string_of_int (Symbol.id rel)
        :: Array.to_list (Array.map string_of_int kpos))
    in
    Mutex.protect t.lock @@ fun () ->
    match Hashtbl.find_opt t.orders key with
    | Some o -> o
    | None ->
        let { nrows; ids } = rel_rows_unlocked t rel arity in
        let ord = Array.init nrows Fun.id in
        let nk = Array.length kpos in
        Array.sort
          (fun a b ->
            let rec go k =
              if k = nk then Int.compare a b
              else
                let c =
                  Int.compare
                    ids.((a * arity) + kpos.(k))
                    ids.((b * arity) + kpos.(k))
                in
                if c <> 0 then c else go (k + 1)
            in
            go 0)
          ord;
        Hashtbl.replace t.orders key ord;
        ord
end

(* Prepared views are cached per fact set (physical identity, a small
   move-to-front LRU): repeated queries against one instance — the
   answer pipeline's evaluate-then-compare passes, repeated CQ calls on
   a chase result, a benchmark's repetitions — amortize the sorted-view
   build exactly as the register machine amortizes its join index
   inside [Fact_set]. Small sets skip the cache: their build is cheaper than
   the eviction pressure they would put on the million-fact entries
   (containment probes churn through thousands of tiny targets). The
   size is only taken on a miss: [Fact_set.cardinal] walks the whole
   set, which on a cached instance costs more than a point query. *)
let prepared_cache_max = 4
let prepared_cache_min_facts = 4096
let prepared_cache : (Fact_set.t * Prepared.t) list ref = ref []
let prepared_lock = Mutex.create ()

let prepared_for fs =
  Mutex.protect prepared_lock (fun () ->
      match List.find_opt (fun (k, _) -> k == fs) !prepared_cache with
      | Some (_, p) ->
          prepared_cache :=
            (fs, p) :: List.filter (fun (k, _) -> k != fs) !prepared_cache;
          p
      | None ->
          let p = Prepared.make fs in
          if Fact_set.cardinal fs >= prepared_cache_min_facts then
            prepared_cache :=
              (fs, p)
              :: List.filteri
                   (fun i _ -> i < prepared_cache_max - 1)
                   !prepared_cache;
          p)

(* ------------------------------------------------------------------ *)
(* The leapfrog join                                                   *)
(* ------------------------------------------------------------------ *)

exception Trip
exception Limit

type cursor = {
  c_ids : int array;
  c_arity : int;
  c_ord : int array;
  c_kpos : int array;
  c_klev : int array;
  c_kid : int array;
  c_nk : int;
  mutable lo : int;
  mutable hi : int;  (* current frontier: rows c_ord.(lo..hi-1) *)
  mutable depth : int;  (* key columns consumed by outer levels *)
}

type rt = {
  guard : Guard.t option;
  mutable steps : int;
  mutable gallops : int;
  mutable emitted : int;
}

let cval cur k r = cur.c_ids.((cur.c_ord.(r) * cur.c_arity) + cur.c_kpos.(k))

(* First index in [cur.lo, cur.hi) whose column-[k] value is >= x:
   exponential probe from the left edge, then binary search inside the
   overshot octave. This is the only data access of the join. *)
let seek rt cur k x =
  rt.steps <- rt.steps + 1;
  if rt.steps land Guard.poll_mask = 0 then
    (match rt.guard with
    | Some g -> if Guard.check g <> None then raise Trip
    | None -> ());
  let lo = cur.lo and hi = cur.hi in
  if lo >= hi || cval cur k lo >= x then lo
  else begin
    let step = ref 1 in
    while lo + !step < hi && cval cur k (lo + !step) < x do
      rt.gallops <- rt.gallops + 1;
      step := !step lsl 1
    done;
    let l = ref (lo + (!step lsr 1)) and h = ref (min hi (lo + !step)) in
    (* invariant: cval !l < x; !h = hi or cval !h >= x *)
    while !h - !l > 1 do
      let m = (!l + !h) / 2 in
      if cval cur k m < x then l := m else h := m
    done;
    !h
  end

(* Consume the rigid key prefix; false when the atom has no matching
   rows (a constant absent from the instance, or an empty relation). *)
let narrow_rigid rt cur =
  let ok = ref (cur.lo < cur.hi) in
  while !ok && cur.depth < cur.c_nk && cur.c_klev.(cur.depth) = -1 do
    let x = cur.c_kid.(cur.depth) in
    let l = seek rt cur cur.depth x in
    cur.lo <- l;
    if l < cur.hi && cval cur cur.depth l = x then begin
      cur.hi <- seek rt cur cur.depth (x + 1);
      cur.depth <- cur.depth + 1
    end
    else ok := false
  done;
  !ok && cur.lo < cur.hi

(* Leapfrog one level: intersect the participating atoms' frontiers on
   their current key column, and for each common value [x] narrow every
   participant through all its columns at this level (a variable
   repeated inside an atom adds extra columns) before running [k].
   [k] returning true stops the enumeration (the existential suffix
   needs one witness); the caller's frontiers are restored either way. *)
let join_level rt cursors parts lev vals k =
  let ps : int array = parts.(lev) in
  let np = Array.length ps in
  let save_lo = Array.map (fun i -> cursors.(i).lo) ps in
  let save_hi = Array.map (fun i -> cursors.(i).hi) ps in
  let save_depth = Array.map (fun i -> cursors.(i).depth) ps in
  let stop = ref false in
  let exhausted = ref false in
  Array.iter
    (fun i -> if cursors.(i).lo >= cursors.(i).hi then exhausted := true)
    ps;
  while (not !stop) && not !exhausted do
    (* find the next common value across the np frontiers *)
    let c0 = cursors.(ps.(0)) in
    if c0.lo >= c0.hi then exhausted := true
    else begin
      let x = ref (cval c0 c0.depth c0.lo) in
      let matched = ref 1 and idx = ref (1 mod np) in
      while !matched < np && not !exhausted do
        let cur = cursors.(ps.(!idx)) in
        let r = seek rt cur cur.depth !x in
        cur.lo <- r;
        if r >= cur.hi then exhausted := true
        else begin
          let v = cval cur cur.depth r in
          if v = !x then incr matched
          else begin
            x := v;
            matched := 1
          end
        end;
        idx := (!idx + 1) mod np
      done;
      if not !exhausted then begin
        let x = !x in
        (* narrow every participant through its columns at this level *)
        let ok = ref true in
        let i = ref 0 in
        while !ok && !i < np do
          let cur = cursors.(ps.(!i)) in
          while
            !ok
            && cur.depth < cur.c_nk
            && cur.c_klev.(cur.depth) = lev
          do
            let l = seek rt cur cur.depth x in
            cur.lo <- l;
            if l < cur.hi && cval cur cur.depth l = x then begin
              cur.hi <- seek rt cur cur.depth (x + 1);
              cur.depth <- cur.depth + 1
            end
            else ok := false
          done;
          incr i
        done;
        if !ok then begin
          vals.(lev) <- x;
          if k () then stop := true
        end;
        (* rewind the level's narrowing and advance past x *)
        Array.iteri
          (fun j i ->
            let cur = cursors.(i) in
            cur.depth <- save_depth.(j);
            cur.hi <- save_hi.(j);
            if not !stop then cur.lo <- seek rt cur cur.depth (x + 1))
          ps
      end
    end
  done;
  Array.iteri
    (fun j i ->
      let cur = cursors.(i) in
      cur.lo <- save_lo.(j);
      cur.hi <- save_hi.(j);
      cur.depth <- save_depth.(j))
    ps;
  !stop

(* Run a compiled plan: enumerate the full join in elimination order and
   project each row onto the answer slots, deduplicating as rows arrive
   (the elimination order is chosen for join locality, not for emission
   grouping, so the same projection can recur). [limit] stops the
   enumeration after that many distinct tuples — existence checks pass 1
   and stop at the first join row. One fuel unit is drawn per distinct
   tuple; the seek counter polls the guard for deadline/cancellation.
   Tuples are sorted at the end — the same sorted-distinct contract as
   [Cq.answers]. *)
let run_compiled ?guard ?limit c prepared =
  Atomic.incr c_plans;
  let rt = { guard; steps = 0; gallops = 0; emitted = 0 } in
  let acc = ref [] in
  let finish tripped =
    Atomic.set c_seeks (Atomic.get c_seeks + rt.steps);
    Atomic.set c_gallops (Atomic.get c_gallops + rt.gallops);
    Atomic.set c_emitted (Atomic.get c_emitted + rt.emitted);
    (List.sort_uniq tuple_compare !acc, tripped)
  in
  try
    let cursors =
      Array.map
        (fun pa ->
          let rows = Prepared.rel_rows prepared pa.rel pa.arity in
          let ord = Prepared.order prepared pa.rel pa.arity pa.kpos in
          {
            c_ids = rows.Prepared.ids;
            c_arity = max pa.arity 1;
            c_ord = ord;
            c_kpos = pa.kpos;
            c_klev = pa.klev;
            c_kid = pa.kid;
            c_nk = Array.length pa.kpos;
            lo = 0;
            hi = Array.length ord;
            depth = 0;
          })
        c.patoms
    in
    if not (Array.for_all (fun cur -> narrow_rigid rt cur) cursors) then
      finish false
    else begin
      let vals = Array.make (max 1 c.nvars) 0 in
      let seen : (int list, unit) Hashtbl.t = Hashtbl.create 64 in
      let emit () =
        let key =
          Array.to_list (Array.map (fun lev -> vals.(lev)) c.out_levels)
        in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          rt.emitted <- rt.emitted + 1;
          (match guard with
          | Some g -> ignore (Guard.spend g 1)
          | None -> ());
          acc := List.map Term.of_id key :: !acc;
          match limit with
          | Some l when rt.emitted >= l -> raise Limit
          | _ -> ()
        end
      in
      (* Levels past the last answer variable are purely existential:
         one witness settles them, so the join at those levels stops at
         its first completed row instead of enumerating them all. *)
      let suffix_start =
        Array.fold_left (fun m lev -> max m (lev + 1)) 0 c.out_levels
      in
      (* [go lev] returns whether its subtree completed at least one
         row; a level inside the suffix stops iterating its values as
         soon as one of them completed a row. *)
      let rec go lev =
        if lev >= c.nvars then begin
          emit ();
          true
        end
        else
          join_level rt cursors c.parts lev vals (fun () ->
              go (lev + 1) && lev >= suffix_start)
      in
      ignore (go 0);
      finish false
    end
  with
  | Trip -> finish true
  | Limit -> finish false

(* ------------------------------------------------------------------ *)
(* Fallback for bodies the leapfrog compiler declines                  *)
(* ------------------------------------------------------------------ *)

(* [compile_body] declines an empty body and an argument it cannot key
   on (a functional term with a bindable variable inside, or an answer
   variable with no direct occurrence). Those plans enumerate through
   the register-machine search and project each homomorphism. *)
let fallback_problem p target =
  Homomorphism.make ~init:p.p_init ~flexible:p.p_flexible
    ~pattern:p.p_pattern ~target ()

let run_fallback ?guard p prepared =
  let seen = ref 0 in
  let acc = ref [] in
  let tripped = ref false in
  (try
     Homomorphism.iter (fallback_problem p (Prepared.fact_set prepared))
       (fun m ->
         incr seen;
         (match guard with
         | Some g ->
             if !seen land Guard.poll_mask = 0 && Guard.check g <> None
             then raise Trip
         | None -> ());
         acc := List.map (fun v -> Term.Map.find v m) p.p_out :: !acc)
   with Trip -> tripped := true);
  (List.sort_uniq tuple_compare !acc, !tripped)

let run_plan ?guard ?limit p prepared =
  match p.p_compiled with
  | Some c -> run_compiled ?guard ?limit c prepared
  | None -> run_fallback ?guard p prepared

let outcome_of ?guard tuples =
  match guard with
  | Some g -> Guard.outcome g ~complete:tuples ~partial:tuples
  | None -> Guard.Complete tuples

let run ?guard p prepared =
  let tuples, _ = run_plan ?guard p prepared in
  outcome_of ?guard tuples

(* Boolean existence: an empty answer prefix and a tuple limit of one,
   so the join stops at the first witness. The fallback uses the
   register machine's own early-exit [exists]. *)
let exists_pieces ~init ~flexible atoms prepared =
  let p = compile_pieces ~init ~flexible ~free:[] atoms in
  match p.p_compiled with
  | Some c ->
      let tuples, _ = run_compiled ~limit:1 c prepared in
      tuples <> []
  | None ->
      Homomorphism.exists (fallback_problem p (Prepared.fact_set prepared))

(* ------------------------------------------------------------------ *)
(* CQ / UCQ entry points                                               *)
(* ------------------------------------------------------------------ *)

let answers_outcome ?guard q f =
  run ?guard (Plan.compile q) (prepared_for f)

let answers ?guard q f =
  match answers_outcome ?guard q f with
  | Guard.Complete ts -> ts
  | Guard.Exhausted { partial; _ } -> partial

let holds q f tuple =
  if List.length tuple <> List.length (Cq.free q) then
    invalid_arg "Eval.holds: answer tuple arity mismatch";
  let init =
    List.fold_left2
      (fun m v a -> Term.Map.add v a m)
      Term.Map.empty (Cq.free q) tuple
  in
  exists_pieces ~init ~flexible:(Cq.var_set q) (Cq.atoms q)
    (prepared_for f)

let boolean_holds q f =
  exists_pieces ~init:Term.Map.empty ~flexible:(Cq.var_set q) (Cq.atoms q)
    (prepared_for f)

let ucq_answers_outcome ?guard u f =
  let prepared = prepared_for f in
  let seen : (int list, unit) Hashtbl.t = Hashtbl.create 256 in
  let acc = ref [] in
  List.iter
    (fun d ->
      let tuples, _ = run_plan ?guard (Plan.compile d) prepared in
      List.iter
        (fun tuple ->
          let key = List.map (fun (t : Term.t) -> t.Term.id) tuple in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            acc := tuple :: !acc
          end)
        tuples)
    (Ucq.disjuncts u);
  outcome_of ?guard (List.sort tuple_compare !acc)

let ucq_answers ?guard u f =
  match ucq_answers_outcome ?guard u f with
  | Guard.Complete ts -> ts
  | Guard.Exhausted { partial; _ } -> partial

let ucq_holds u f tuple =
  let prepared = prepared_for f in
  Ucq.exists
    (fun d ->
      List.length tuple = List.length (Cq.free d)
      &&
      let init =
        List.fold_left2
          (fun m v a -> Term.Map.add v a m)
          Term.Map.empty (Cq.free d) tuple
      in
      exists_pieces ~init ~flexible:(Cq.var_set d) (Cq.atoms d) prepared)
    u

let ucq_boolean_holds u f =
  let prepared = prepared_for f in
  Ucq.exists
    (fun d ->
      exists_pieces ~init:Term.Map.empty ~flexible:(Cq.var_set d)
        (Cq.atoms d) prepared)
    u

(* ------------------------------------------------------------------ *)
(* Chase trigger matching (moved verbatim from Chase.Engine)           *)
(* ------------------------------------------------------------------ *)

module Match = struct
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
     NB: the production order names fresh nulls — these searches stay on
     the register-machine engine whose order the differentials pin. *)
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
        let domain_bindings =
          List.map (fun v -> (v, full_dom_list)) dom_vars
        in
        Homomorphism.iter_multi ~flexible ~pattern ~domain_bindings f
    | Dom_seed i ->
        let pattern =
          Array.to_list (Array.map (fun a -> (a, old_facts)) body)
        in
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
end

(* ------------------------------------------------------------------ *)
(* Containment probe registration                                      *)
(* ------------------------------------------------------------------ *)

(* Engine selection for boolean existence probes, decided on the target
   size before anything is compiled: below the cutoff the sorted-view
   build and the plan cost more than the whole register-machine search
   (containment targets are query bodies of a few dozen atoms), so the
   probe declines and the containment solver runs its own search; at or
   above it the leapfrog join runs. Either engine decides the same
   verdict. *)
let probe_leapfrog_min = 64

let containment_probe ?(force_leapfrog = false) () : Eval_hook.probe =
 fun ~init ~flexible ~pattern ~target ->
  if (not force_leapfrog) && Fact_set.cardinal target < probe_leapfrog_min
  then None
  else
    match compile_body ~init ~flexible ~out:[] pattern with
    | None -> None
    | Some c ->
        let tuples, _ = run_compiled ~limit:1 c (prepared_for target) in
        Some (tuples <> [])

let () = Eval_hook.register (containment_probe ())
