(* Subsumption index over the disjuncts of an evolving UCQ.

   The rewriting saturation and [Ucq.of_list] spend their time asking,
   for a candidate disjunct [q], "which stored disjuncts could subsume
   [q]?" and "which could [q] subsume?". Both are homomorphism
   existence questions, so every stored disjunct is indexed by cheap
   homomorphism-invariant keys — the signature fingerprint
   [Cq.sig_mask], the exact per-predicate occurrence vector (its
   support refines the hashed mask; the counts themselves are compared
   only for equality probes, because a homomorphism may collapse atoms
   and therefore bounds no count of its target), and the anchor- and
   distance-profiles of [Cq.hom_feasible] — and a candidate pair
   reaches the backtracking solver only when the probe fails to refute
   it.

   Entries live in insertion order with a tombstone flag; reading the
   live entries newest-first gives the disjunct order of an
   [Ucq.add_minimal] fold ([q :: kept]). *)

type entry = {
  q : Cq.t;
  occ : int array;
      (* sorted [(Symbol.id lsl 20) lor count] per body relation *)
  mutable live : bool;
}

type t = {
  mutable entries : entry array;
  mutable n : int;  (* used slots, dead or alive *)
  mutable n_live : int;
}

(* Process-wide probe instrumentation (for [--stats] and the bench
   harness). *)
type stats = { pairs : int; pruned : int }

let c_pairs = Atomic.make 0
let c_pruned = Atomic.make 0

let stats () = { pairs = Atomic.get c_pairs; pruned = Atomic.get c_pruned }

let occ_vector q =
  let tbl : (int, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun a ->
      let sid = Symbol.id (Atom.rel a) in
      Hashtbl.replace tbl sid
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl sid)))
    (Cq.atoms q);
  let v =
    Array.of_seq
      (Seq.map
         (fun (sid, n) -> (sid lsl 20) lor min n 0xFFFFF)
         (Hashtbl.to_seq tbl))
  in
  Array.sort compare v;
  v

(* Relation support of [from] within [into]: every predicate of [from]
   must occur in [into] (with any multiplicity — see the collapse
   caveat above). Exact, unlike the 61-bit hashed [Cq.sig_mask]. *)
let occ_supported ~from ~into =
  let nf = Array.length from and ni = Array.length into in
  let rec go i j =
    j >= nf
    || (i < ni
       &&
       let ki = into.(i) lsr 20 and kj = from.(j) lsr 20 in
       if ki < kj then go (i + 1) j
       else ki = kj && go (i + 1) (j + 1))
  in
  go 0 0

let create () = { entries = [||]; n = 0; n_live = 0 }

let cardinal idx = idx.n_live

let add idx q =
  if idx.n = Array.length idx.entries then begin
    let cap = max 16 (2 * idx.n) in
    let entries =
      Array.init cap (fun i ->
          if i < idx.n then idx.entries.(i)
          else { q; occ = [||]; live = false } (* placeholder *))
    in
    idx.entries <- entries
  end;
  idx.entries.(idx.n) <- { q; occ = occ_vector q; live = true };
  idx.n <- idx.n + 1;
  idx.n_live <- idx.n_live + 1

(* Live disjuncts, newest first. *)
let disjuncts idx =
  let acc = ref [] in
  for i = 0 to idx.n - 1 do
    let e = idx.entries.(i) in
    if e.live then acc := e.q :: !acc
  done;
  !acc

(* Could stored disjunct [d] subsume candidate [q], i.e. could
   [Containment.implies q d] (a homomorphism [d -> q]) hold? *)
let feasible_subsumer ~(d : entry) ~(q : Cq.t) ~qocc =
  occ_supported ~from:d.occ ~into:qocc && Cq.hom_feasible ~from:d.q ~into:q

(* ...and the converse direction, [Containment.implies d q]. *)
let feasible_victim ~(d : entry) ~(q : Cq.t) ~qocc =
  occ_supported ~from:qocc ~into:d.occ && Cq.hom_feasible ~from:q ~into:d.q

(* [covered idx q ~implies]: is [q] subsumed by some live disjunct?
   Probes newest-first, like [Ucq.covers]. *)
let covered idx q ~implies =
  let qocc = occ_vector q in
  let rec scan i =
    i >= 0
    &&
    let e = idx.entries.(i) in
    (e.live
    && begin
         Atomic.incr c_pairs;
         if feasible_subsumer ~d:e ~q ~qocc then implies q e.q
         else begin
           Atomic.incr c_pruned;
           false
         end
       end)
    || scan (i - 1)
  in
  scan (idx.n - 1)

(* Kill every live disjunct that [q] subsumes. *)
let drop_subsumed idx q ~implies =
  let qocc = occ_vector q in
  for i = 0 to idx.n - 1 do
    let e = idx.entries.(i) in
    if e.live then begin
      Atomic.incr c_pairs;
      if feasible_victim ~d:e ~q ~qocc then begin
        if implies e.q q then begin
          e.live <- false;
          idx.n_live <- idx.n_live - 1
        end
      end
      else Atomic.incr c_pruned
    end
  done

let insert_minimal idx q ~implies =
  if covered idx q ~implies then `Subsumed
  else begin
    drop_subsumed idx q ~implies;
    add idx q;
    `Added
  end

(* Candidate lists for callers that run the surviving containment checks
   themselves (the rewriting's memo prepass): the entries the probes
   could not refute, in the same scan order as [covered] /
   [drop_subsumed]. *)
let subsumer_candidates idx q =
  let qocc = occ_vector q in
  let acc = ref [] in
  for i = 0 to idx.n - 1 do
    let e = idx.entries.(i) in
    if e.live then begin
      Atomic.incr c_pairs;
      if feasible_subsumer ~d:e ~q ~qocc then acc := e.q :: !acc
      else Atomic.incr c_pruned
    end
  done;
  !acc (* newest first *)

let victim_candidates idx q =
  let qocc = occ_vector q in
  let acc = ref [] in
  for i = idx.n - 1 downto 0 do
    let e = idx.entries.(i) in
    if e.live then begin
      Atomic.incr c_pairs;
      if feasible_victim ~d:e ~q ~qocc then acc := (i, e.q) :: !acc
      else Atomic.incr c_pruned
    end
  done;
  !acc (* oldest first *)

let kill idx i =
  let e = idx.entries.(i) in
  if e.live then begin
    e.live <- false;
    idx.n_live <- idx.n_live - 1
  end

(* One-shot pair filter for list-based callers ([Ucq.covers] /
   [Ucq.add_minimal]) that have no persistent index: same invariants,
   same counters, fingerprints served from the [Cq] caches. *)
let pair_feasible ~from ~into =
  Atomic.incr c_pairs;
  if Cq.hom_feasible ~from ~into then true
  else begin
    Atomic.incr c_pruned;
    false
  end
