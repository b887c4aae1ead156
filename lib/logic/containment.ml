(* ------------------------------------------------------------------ *)
(* Decomposed solving                                                  *)
(* ------------------------------------------------------------------ *)

type solver_stats = { splits : int; prescreened : int }

let c_splits = Atomic.make 0
let c_prescreened = Atomic.make 0

let solver_stats () =
  { splits = Atomic.get c_splits; prescreened = Atomic.get c_prescreened }

exception Found

(* Is there a homomorphism of [atoms] into [target] extending [init]?
   One register-machine search with an early exit at the first
   solution. *)
let has_hom ?injective ~init ~flexible atoms target =
  try
    Homomorphism.iter_multi ?injective ~init ~flexible
      ~pattern:(List.map (fun a -> (a, target)) atoms)
      ~domain_bindings:[]
      (fun _ -> raise Found);
    false
  with Found -> true

(* Solve the containment homomorphism [from -> into] one connected
   component of [from]'s body at a time: components share no bindable
   variable (answer variables are pre-bound, constants and functional
   terms rigid), so the conjunction holds iff each component embeds
   independently — a product of small searches with early exit instead
   of one deep one. Components are tried smallest-first. *)
let exists_decomposed ~from ~into ~init =
  let flexible = Cq.var_set from in
  let target = Cq.as_fact_set into in
  let exists_component atoms = has_hom ~init ~flexible atoms target in
  match Cq.body_components from with
  | [ _ ] -> exists_component (Cq.atoms from)
  | comps ->
      Atomic.incr c_splits;
      let by_size =
        List.stable_sort
          (fun a b -> Int.compare (List.length a) (List.length b))
          comps
      in
      List.for_all exists_component by_size

let implies q1 q2 =
  (* Necessary condition first: a homomorphism [q2 -> q1] maps each atom
     to an atom with the same relation, so every relation of [q2] must
     occur in [q1]. One [land] on cached signature fingerprints rejects
     most negative checks before any search. *)
  Cq.sig_mask q2 land lnot (Cq.sig_mask q1) = 0
  && List.length (Cq.free q2) = List.length (Cq.free q1)
  &&
  if not (Cq.hom_feasible ~from:q2 ~into:q1) then begin
    (* Anchor or distance-profile refutation: no search at all. *)
    Atomic.incr c_prescreened;
    false
  end
  else
    let init =
      List.fold_left2
        (fun m v w -> Term.Map.add v w m)
        Term.Map.empty (Cq.free q2) (Cq.free q1)
    in
    exists_decomposed ~from:q2 ~into:q1 ~init

(* ------------------------------------------------------------------ *)
(* Memoized containment                                                *)
(* ------------------------------------------------------------------ *)

(* Verdicts of [implies] are cached under pairs of canonical query ids
   ([Cq.canon_id] — sound: equal ids certify isomorphism, and containment
   is isomorphism-invariant). The cache is a lock-free direct-mapped
   table: the triple [(k1, k2, verdict)] is packed into one immediate
   OCaml int (31 + 31 + 1 bits), so a probe is a single atomic array
   read and a store a single atomic write — key and verdict can never
   tear apart, racing domains at worst overwrite each other's slot, and
   a memo round-trip costs tens of nanoseconds (it must stay well under
   the ~1us of a recomputed verdict to be worth anything). Collisions
   evict (bounded memory, no locks, no generations). *)

type memo_stats = { hits : int; misses : int; entries : int }

let m_hits = Atomic.make 0
let m_misses = Atomic.make 0

(* Occupied-slot count, maintained on store (a write over an empty slot
   gains an entry; a collision evicts one and installs another, net
   zero). Replaces the full-table sweep [memo_stats] used to pay per
   call — [Rewrite.finalize] reads the stats on every rewriting run.
   Racing domains claiming the same empty slot may overcount by one;
   the counter is instrumentation, not a correctness input. *)
let m_entries = Atomic.make 0
let memo_bits = 16
let memo_size = 1 lsl memo_bits

(* 0 is a safe "empty" sentinel: entries are only stored for [k1 <> k2]
   (equal ids short-circuit to [true] before the cache), and any packed
   entry with [k1 <> k2] is nonzero. *)
let memo_table = Array.make memo_size 0

let memo_slot k1 k2 = (((k1 * 0x9e3779b1) lxor k2) * 0x85ebca6b) land (memo_size - 1)
let memo_pack k1 k2 v = (((k1 lsl 31) lor k2) lsl 1) lor (if v then 1 else 0)

let memo_stats () =
  {
    hits = Atomic.get m_hits;
    misses = Atomic.get m_misses;
    entries = Atomic.get m_entries;
  }

let reset_memo () =
  Array.fill memo_table 0 memo_size 0;
  Atomic.set m_hits 0;
  Atomic.set m_misses 0;
  Atomic.set m_entries 0

let implies_memo q1 q2 =
  if q1 == q2 then true
  else if List.length (Cq.free q1) <> List.length (Cq.free q2) then false
  else
    let k1 = Cq.canon_id q1 and k2 = Cq.canon_id q2 in
    if k1 = k2 then true (* isomorphic, hence mutually containing *)
    else if (k1 lor k2) lsr 31 <> 0 then
      (* Ids beyond 31 bits do not fit the packing; compute unmemoized
         (practically unreachable). *)
      implies q1 q2
    else begin
      let slot = memo_slot k1 k2 in
      let entry = Array.unsafe_get memo_table slot in
      if entry <> 0 && entry lsr 1 = (k1 lsl 31) lor k2 then begin
        Atomic.incr m_hits;
        entry land 1 = 1
      end
      else begin
        Atomic.incr m_misses;
        let v = implies q1 q2 in
        if Array.unsafe_get memo_table slot = 0 then Atomic.incr m_entries;
        Array.unsafe_set memo_table slot (memo_pack k1 k2 v);
        v
      end
    end

(* A pure peek: resolve the pair from [implies_memo]'s fast paths (physical
   equality, free-arity mismatch, equal canonical ids, a live cache entry)
   or answer [None] — never computes a verdict. This is the prepass of
   the rewriting store's insertions: pairs decided here run no search. *)
let memo_probe q1 q2 =
  if q1 == q2 then Some true
  else if List.length (Cq.free q1) <> List.length (Cq.free q2) then
    Some false
  else
    let k1 = Cq.canon_id q1 and k2 = Cq.canon_id q2 in
    if k1 = k2 then Some true (* isomorphic, hence mutually containing *)
    else if (k1 lor k2) lsr 31 <> 0 then None
    else
      let entry = Array.unsafe_get memo_table (memo_slot k1 k2) in
      if entry <> 0 && entry lsr 1 = (k1 lsl 31) lor k2 then begin
        Atomic.incr m_hits;
        Some (entry land 1 = 1)
      end
      else None

let equivalent q1 q2 = implies q1 q2 && implies q2 q1

(* Injectivity couples the components of the pattern, so [isomorphic]
   cannot be solved one component at a time. Invariants still apply as
   *prescreens*: the 1-WL color-refinement arrays must agree (this is
   what separates same-shape queries that differ only in which symmetric
   node carries a distinguishing atom — the dominant refutation case when
   classifying markings), and an isomorphism is in particular a
   homomorphism each way, so both directions must be hom-feasible. The
   search itself then runs in injective mode, failing a clashing binding
   the moment it is attempted instead of enumerating every (mostly
   non-injective) homomorphism and filtering afterwards. *)
let isomorphic q1 q2 =
  Cq.size q1 = Cq.size q2
  && List.length (Cq.vars q1) = List.length (Cq.vars q2)
  && String.equal (Cq.iso_key q1) (Cq.iso_key q2)
  && List.length (Cq.free q1) = List.length (Cq.free q2)
  && Cq.wl_equal q1 q2
  && Cq.hom_feasible ~from:q1 ~into:q2
  && Cq.hom_feasible ~from:q2 ~into:q1
  &&
  let init =
    List.fold_left2
      (fun m v w -> Term.Map.add v w m)
      Term.Map.empty (Cq.free q1) (Cq.free q2)
  in
  has_hom ~injective:true ~init ~flexible:(Cq.var_set q1) (Cq.atoms q1)
    (Cq.as_fact_set q2)

let core_of_query q =
  let redundant q atom =
    match
      List.filter (fun a -> not (Atom.equal a atom)) (Cq.atoms q)
    with
    | [] -> None
    | smaller_atoms ->
        let smaller = Cq.make ~free:(Cq.free q) smaller_atoms in
        (* [atom] is redundant iff the full query maps into the smaller
           one fixing the answer variables — i.e. the smaller query
           implies the full one (memoized: the shrink loop re-tests many
           isomorphic subquery pairs). The subsumption-index fingerprint
           probe refutes most non-redundant candidates before even the
           memo table is consulted. *)
        if not (Ucq_index.pair_feasible ~from:q ~into:smaller) then None
        else if implies_memo smaller q then Some smaller
        else None
  in
  (* One pass over the atoms: after a removal the scan continues with the
     atoms after the removed one. The atoms before it were non-redundant,
     and stay so in the smaller query (see the .mli), so restarting from
     the first atom would only re-test them and remove the same atoms. *)
  let rec shrink q = function
    | [] -> q
    | atom :: rest -> (
        (* Free variables must keep occurring in the body. *)
        match redundant q atom with
        | Some smaller -> shrink smaller rest
        | None -> shrink q rest
        | exception Invalid_argument _ -> shrink q rest)
  in
  shrink q (Cq.atoms q)
