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

let tuple_compare = List.compare Term.compare

(* ------------------------------------------------------------------ *)
(* Plan compilation                                                    *)
(* ------------------------------------------------------------------ *)

(* A compiled pattern atom: the key order [kpos] is a permutation of the
   argument positions — rigid slots (every argument that is not a query
   variable: constants and functional terms, matched by hash-consed
   identity) first, then variable slots by elimination level. Rows of
   the relation, sorted lexicographically along [kpos], make every
   frontier of the join a contiguous range. *)
type patom = {
  rel : Symbol.t;
  kpos : int array;
  klev : int array;  (* level bound at key column k; -1 = rigid *)
  kid : int array;  (* term id expected at rigid key columns; -1 else *)
}

type plan = {
  nfree : int;
  out_levels : int array;  (* answer slot -> its level in the order *)
  nvars : int;
  order : Term.t array;  (* level -> variable *)
  patoms : patom array;
  parts : int array array;  (* level -> indices of atoms binding it *)
}

(* Total on [Cq.t]: the body is non-empty and every answer variable is a
   direct argument of some atom ([Cq.make] checks both). [out] is the
   projection: the answer variables for an answer plan, none for an
   existence check. *)
let plan_of ~out q =
  let flexible = Cq.var_set q and atoms = Cq.atoms q in
  (* Classify each argument once: [`Var v] binds at [v]'s level, anything
     else is [`Rigid id], matched by hash-consed identity — so [f(y)]
     matches only the literal term [f(y)], as in the register machine. *)
  let classify (t : Term.t) =
    if Term.Set.mem t flexible then `Var t else `Rigid t.Term.id
  in
  let classified =
    List.map (fun a -> (a, List.map classify (Atom.args a))) atoms
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
  let out_levels =
    Array.of_list
      (List.map (fun (v : Term.t) -> Hashtbl.find level v.Term.id) out)
  in
  { nfree; out_levels; nvars; order; patoms; parts }

module Plan = struct
  type t = plan

  let compile q = plan_of ~out:(Cq.free q) q

  let order p = Array.to_list p.order

  let pp ppf p =
    Fmt.pf ppf "<leapfrog plan: %d atoms, order [%a], %d answer slots>"
      (Array.length p.patoms)
      Fmt.(array ~sep:(any " ") Term.pp)
      p.order p.nfree
end

(* ------------------------------------------------------------------ *)
(* The leapfrog join                                                   *)
(* ------------------------------------------------------------------ *)

exception Trip

(* The answer sink of one evaluation: every plan of a CQ or a UCQ adds
   into the same [seen] table, so a tuple is hashed, charged one fuel
   unit and kept once, whichever disjunct finds it first. *)
type sink = {
  s_guard : Guard.t option;
  seen : (int list, unit) Hashtbl.t;
  mutable acc : Term.t list list;
}

(* Add a tuple new to the sink; a fuel trip raises [Trip] before it is
   kept, so the sink holds exactly one tuple per fuel unit drawn. *)
let keep s key tuple =
  (match s.s_guard with
  | Some g when Guard.spend g 1 <> None -> raise Trip
  | _ -> ());
  Hashtbl.add s.seen key ();
  s.acc <- tuple :: s.acc

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

(* Run a plan into the sink [s]: enumerate the join in
   elimination order and project each row onto the answer slots. The
   levels from [suffix_start] on are purely existential. Once every
   answer level is bound, a tuple already in the sink is skipped without
   searching the suffix, and a new one needs one witness row, so the
   suffix stops at its first completed row. The elimination order is
   chosen for join locality, not for emission grouping, so a projection
   can recur inside one plan as well as across the plans of a UCQ. The
   seek counter polls the guard for deadline and cancellation. The
   sorted views come from the fact set, which builds each (relation, key
   order) once and keeps it for its lifetime. *)
let run_plan s p f =
  Atomic.incr c_plans;
  let rt = { guard = s.s_guard; steps = 0; gallops = 0 } in
  let flush () =
    ignore (Atomic.fetch_and_add c_seeks rt.steps);
    ignore (Atomic.fetch_and_add c_gallops rt.gallops)
  in
  Fun.protect ~finally:flush @@ fun () ->
  let cursors =
    Array.map
      (fun pa ->
        let ids, width, ord = Fact_set.sorted_view f pa.rel pa.kpos in
        {
          c_ids = ids;
          c_arity = width;
          c_ord = ord;
          c_kpos = pa.kpos;
          c_klev = pa.klev;
          c_kid = pa.kid;
          c_nk = Array.length pa.kpos;
          lo = 0;
          hi = Array.length ord;
          depth = 0;
        })
      p.patoms
  in
  if Array.for_all (fun cur -> narrow_rigid rt cur) cursors then begin
    let vals = Array.make (max 1 p.nvars) 0 in
    let suffix_start =
      Array.fold_left (fun m lev -> max m (lev + 1)) 0 p.out_levels
    in
    (* [witness lev]: whether the levels from [lev] on complete a row. *)
    let rec witness lev =
      lev >= p.nvars
      || join_level rt cursors p.parts lev vals (fun () -> witness (lev + 1))
    in
    let rec go lev =
      if lev < suffix_start then
        ignore
          (join_level rt cursors p.parts lev vals (fun () ->
               go (lev + 1);
               false))
      else
        let key = Array.fold_right (fun l k -> vals.(l) :: k) p.out_levels [] in
        if (not (Hashtbl.mem s.seen key)) && witness lev then
          keep s key (List.map Term.of_id key)
    in
    go 0
  end

(* One evaluation: run [plans] in turn into one sink and sort its tuples
   once. A trip stops the evaluation where it is; every tuple kept so
   far is a real answer. *)
let evaluate ?guard f plans =
  let s = { s_guard = guard; seen = Hashtbl.create 64; acc = [] } in
  (try Seq.iter (fun p -> run_plan s p f) plans with Trip -> ());
  ignore (Atomic.fetch_and_add c_emitted (Hashtbl.length s.seen));
  List.sort tuple_compare s.acc

let outcome_of ?guard tuples =
  match guard with
  | Some g -> Guard.outcome g ~complete:tuples ~partial:tuples
  | None -> Guard.Complete tuples

(* Boolean existence: an empty projection, so the join stops at the
   first witness. *)
let boolean_holds q f = evaluate f (Seq.return (plan_of ~out:[] q)) <> []

(* ------------------------------------------------------------------ *)
(* CQ / UCQ entry points                                               *)
(* ------------------------------------------------------------------ *)

let answers ?guard q f = evaluate ?guard f (Seq.return (Plan.compile q))

let answers_outcome ?guard q f = outcome_of ?guard (answers ?guard q f)

let ucq_answers ?guard u f =
  evaluate ?guard f (Seq.map Plan.compile (List.to_seq (Ucq.disjuncts u)))

let ucq_answers_outcome ?guard u f = outcome_of ?guard (ucq_answers ?guard u f)

let ucq_boolean_holds u f = Ucq.exists (fun d -> boolean_holds d f) u
