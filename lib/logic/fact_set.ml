(* Fact sets with incrementally-maintained indexes.

   The index is a persistent stack of *frozen layers*, LSM-style: each
   layer is an immutable set of hash tables (per-relation facts and a
   (relation, position, term) join index) that is never mutated after
   construction, so layers are structurally shared between a set and the
   sets derived from it. An index grows one way only: a disjoint union
   ([union_disjoint], and [add] and [union] through it) puts the delta
   side's layers in front of the base's stack, lazily, making the
   indexing cost of a growing chase O(|delta|) per stage; lookups probe
   every layer (the stack is kept shallow by deterministically merging
   the smallest adjacent pair when it grows past a bound). Removals and
   the other set operations never edit an index: they return an
   unindexed set whose index is rebuilt on first use (a [diff] that
   removes nothing returns its operand unchanged).

   A layer holds each fact once: a single packed table per relation
   ([atoms] and the contiguous row-major [ids] slab of their argument
   term ids), and its join index is a table of *postings* — ascending
   [int array]s of rows into the relation table, keyed exactly on the
   hash-consed term id, so a single-constraint lookup needs no
   post-filtering. A posting costs one int per (fact, position), and
   multi-constraint joins intersect two sorted postings instead of
   scanning and filtering.

   Enumeration order is canonical: a relation table lists a layer's facts
   newest-first and each posting visits matching rows in that same
   relative order, so the filtered candidate sequence of a layer does not
   depend on which constraint seeds the lookup. Chase stages are
   bit-identical across [-j] because of this. *)

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

type counters = {
  builds : int;
  built_atoms : int;
  extends : int;
  delta_atoms : int;
  posting_probes : int;
  posting_intersections : int;
  views : int;
}

let c_builds = Atomic.make 0
let c_built_atoms = Atomic.make 0
let c_extends = Atomic.make 0
let c_delta_atoms = Atomic.make 0
let c_posting_probes = Atomic.make 0
let c_posting_intersections = Atomic.make 0
let c_views = Atomic.make 0

let counters () =
  {
    builds = Atomic.get c_builds;
    built_atoms = Atomic.get c_built_atoms;
    extends = Atomic.get c_extends;
    delta_atoms = Atomic.get c_delta_atoms;
    posting_probes = Atomic.get c_posting_probes;
    posting_intersections = Atomic.get c_posting_intersections;
    views = Atomic.get c_views;
  }

(* ------------------------------------------------------------------ *)
(* Layers                                                              *)
(* ------------------------------------------------------------------ *)

(* A packed relation table: the facts of one (layer, relation) as an
   [Atom.t array] plus a parallel row-major [int array] of their
   hash-consed argument-term ids ([ids.(row * arity + pos)]). The join
   inner loop — reject a candidate fact because some argument does not
   match — runs entirely over the contiguous [ids] slab (one int compare
   per constraint, cache-line friendly) instead of chasing
   [Atom.t -> Term.t] pointers per position per fact. [n] is cached:
   seed selection compares table sizes, which must not cost anything. *)
type bucket = { n : int; atoms : Atom.t array; ids : int array }

type layer = {
  lsize : int;  (* atoms in this layer *)
  l_syms : Symbol.t list;  (* distinct relation symbols in this layer *)
  l_rel : (int, bucket) Hashtbl.t;  (* Symbol.id -> facts *)
  l_posts : (int * int, int array) Hashtbl.t;
      (* join index: (Symbol.id, term.id * arity + pos) -> ascending rows
         of the relation's [l_rel] table holding that term at [pos] *)
}

(* Frozen after construction: every mutation of [l_rel]/[l_posts]
   happens inside the [layer_of_iter] / [merge_layers] builders below. *)

(* Mutable accumulator used only while a layer is being built; frozen
   into a packed [bucket] at the end. [pitems] is newest-first — packing
   reverses it, so bucket row 0 is the newest fact: the probe order the
   rest of the engine depends on. *)
type proto = { mutable pn : int; mutable pitems : Atom.t list }

let proto_cons tbl key atom =
  match Hashtbl.find_opt tbl key with
  | None -> Hashtbl.replace tbl key { pn = 1; pitems = [ atom ] }
  | Some p ->
      p.pn <- p.pn + 1;
      p.pitems <- atom :: p.pitems

let pack_bucket arity p =
  let n = p.pn in
  let atoms = Array.make n (List.hd p.pitems) in
  let ids = Array.make (n * arity) 0 in
  List.iteri
    (fun row (a : Atom.t) ->
      atoms.(row) <- a;
      let args = a.Atom.args in
      for pos = 0 to arity - 1 do
        ids.((row * arity) + pos) <- args.(pos).Term.id
      done)
    p.pitems;
  { n; atoms; ids }

(* The join index of one relation table: ascending row postings per
   (term, position), read straight off the packed [ids] slab. *)
let postings_of_bucket l_posts sid arity (b : bucket) =
  if arity > 0 then begin
    let acc : (int, int list) Hashtbl.t = Hashtbl.create (2 * b.n) in
    for row = b.n - 1 downto 0 do
      for pos = 0 to arity - 1 do
        let key = (b.ids.((row * arity) + pos) * arity) + pos in
        match Hashtbl.find_opt acc key with
        | Some (r :: _ as l) when r = row -> ignore l (* dup position, same row *)
        | Some l -> Hashtbl.replace acc key (row :: l)
        | None -> Hashtbl.replace acc key [ row ]
      done
    done;
    Hashtbl.iter
      (fun key rows ->
        Hashtbl.replace l_posts (sid, key) (Array.of_list rows))
      acc
  end

let layer_of_iter ~size iter =
  let p_rel : (int, proto) Hashtbl.t = Hashtbl.create ((size / 4) + 8) in
  let arities : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let syms = ref [] in
  iter (fun atom ->
      let rel = Atom.rel atom in
      let sid = Symbol.id rel in
      if not (Hashtbl.mem arities sid) then begin
        syms := rel :: !syms;
        Hashtbl.replace arities sid (Symbol.arity rel)
      end;
      proto_cons p_rel sid atom);
  let l_rel = Hashtbl.create (Hashtbl.length p_rel + 1) in
  Hashtbl.iter
    (fun sid p ->
      Hashtbl.replace l_rel sid (pack_bucket (Hashtbl.find arities sid) p))
    p_rel;
  let l_posts = Hashtbl.create ((2 * size) + 8) in
  Hashtbl.iter
    (fun sid b -> postings_of_bucket l_posts sid (Hashtbl.find arities sid) b)
    l_rel;
  { lsize = size; l_syms = !syms; l_rel; l_posts }

let layer_of_set set =
  layer_of_iter ~size:(Atom.Set.cardinal set) (fun f -> Atom.Set.iter f set)

(* Merge [newer] onto [older]: rows of the newer layer stay in front,
   preserving the probe order of the unmerged stack. *)
let merge_append (v : bucket) (old : bucket) =
  {
    n = v.n + old.n;
    atoms = Array.append v.atoms old.atoms;
    ids = Array.append v.ids old.ids;
  }

let merge_layers newer older =
  Atomic.incr c_builds;
  ignore (Atomic.fetch_and_add c_built_atoms (newer.lsize + older.lsize));
  let l_rel =
    Hashtbl.create (Hashtbl.length newer.l_rel + Hashtbl.length older.l_rel)
  in
  Hashtbl.iter (Hashtbl.replace l_rel) older.l_rel;
  Hashtbl.iter
    (fun k (v : bucket) ->
      match Hashtbl.find_opt l_rel k with
      | None -> Hashtbl.replace l_rel k v
      | Some old -> Hashtbl.replace l_rel k (merge_append v old))
    newer.l_rel;
  (* Postings of the merged relation table: the newer layer's rows keep
     their indices, the older layer's shift up by the newer relation
     table's row count — both sides ascending, so concatenation stays
     ascending. *)
  let l_posts =
    Hashtbl.create
      (Hashtbl.length newer.l_posts + Hashtbl.length older.l_posts)
  in
  Hashtbl.iter
    (fun ((sid, _) as key) old_rows ->
      let off =
        match Hashtbl.find_opt newer.l_rel sid with
        | Some b -> b.n
        | None -> 0
      in
      let shifted =
        if off = 0 then old_rows else Array.map (fun r -> r + off) old_rows
      in
      match Hashtbl.find_opt newer.l_posts key with
      | None -> Hashtbl.replace l_posts key shifted
      | Some new_rows ->
          Hashtbl.replace l_posts key (Array.append new_rows shifted))
    older.l_posts;
  Hashtbl.iter
    (fun key new_rows ->
      if not (Hashtbl.mem older.l_posts key) then
        Hashtbl.replace l_posts key new_rows)
    newer.l_posts;
  let l_syms =
    older.l_syms
    @ List.filter
        (fun s -> not (Hashtbl.mem older.l_rel (Symbol.id s)))
        newer.l_syms
  in
  { lsize = newer.lsize + older.lsize; l_syms; l_rel; l_posts }

(* ------------------------------------------------------------------ *)
(* Indexes: layer stacks + the active domain                           *)
(* ------------------------------------------------------------------ *)

type index = {
  layers : layer list;  (* newest first *)
  n_layers : int;
  domain : Term.Set.t;
}

(* Lookups probe every layer, so the stack is kept shallow: past
   [max_layers] the adjacent pair with the smallest combined size is
   merged (deterministic, and amortized O(log n) per atom under streams
   of small adds — the geometric layer sizes of a doubling chase make the
   smallest-pair merge cheap relative to the stage's own delta). The
   bound is deliberately tight: every join probe pays one hash lookup
   per layer, and the chase hot loop issues several probes per trigger,
   so a deep stack taxes reads far more than compaction taxes writes. *)
let max_layers = 4

let rec rebalance layers n =
  if n <= max_layers then (layers, n)
  else
    let arr = Array.of_list layers in
    let best = ref 0 and best_size = ref max_int in
    for i = 0 to Array.length arr - 2 do
      let s = arr.(i).lsize + arr.(i + 1).lsize in
      if s < !best_size then begin
        best := i;
        best_size := s
      end
    done;
    let merged = merge_layers arr.(!best) arr.(!best + 1) in
    let layers' =
      List.concat
        [
          Array.to_list (Array.sub arr 0 !best);
          [ merged ];
          Array.to_list
            (Array.sub arr (!best + 2) (Array.length arr - !best - 2));
        ]
    in
    rebalance layers' (n - 1)

let domain_add_atom dom atom =
  (* Set.add returns the set itself (physically) when the element is
     already present, so the common rediscovered-term case is alloc-free. *)
  List.fold_left (fun d t -> Term.Set.add t d) dom (Atom.args atom)

let empty_index = { layers = []; n_layers = 0; domain = Term.Set.empty }

let index_of_set set =
  if Atom.Set.is_empty set then empty_index
  else begin
    Atomic.incr c_builds;
    ignore (Atomic.fetch_and_add c_built_atoms (Atom.Set.cardinal set));
    let layer = layer_of_set set in
    let domain = Atom.Set.fold (fun a d -> domain_add_atom d a) set Term.Set.empty in
    { layers = [ layer ]; n_layers = 1; domain }
  end

let rel_buckets idx sid =
  List.filter_map (fun l -> Hashtbl.find_opt l.l_rel sid) idx.layers

(* ------------------------------------------------------------------ *)
(* Fact sets                                                           *)
(* ------------------------------------------------------------------ *)

(* A sorted view of one relation for the leapfrog join: the relation's
   row-major id slab [v_ids], and the row permutation [v_perm] sorted
   along the key order [v_kpos]. *)
type view = { v_sid : int; v_kpos : int array; v_ids : int array; v_perm : int array }

type t = {
  set : Atom.Set.t;
  mutable index : index_state;
  mutable views : view list;
      (* built on first use by [sorted_view]; never shared with derived
         sets *)
}

and index_state =
  | Unbuilt
  | Built of index
  | Lazy_extend of { base : t; other : t }
      (* Pending disjoint union [base ∪ other]: forced by concatenating
         the two sides' layer stacks, so the delta side's layers are
         built once and shared — and never built at all if this set's
         index is never needed (e.g. a chase's final stage). *)

let of_set set = { set; index = Unbuilt; views = [] }
let empty = of_set Atom.Set.empty
let of_list l = of_set (Atom.Set.of_list l)
let to_set t = t.set
let atoms t = Atom.Set.elements t.set
let cardinal t = Atom.Set.cardinal t.set
let is_empty t = Atom.Set.is_empty t.set
let mem a t = Atom.Set.mem a t.set

let is_indexed t = match t.index with Unbuilt -> false | _ -> true

let rec index t =
  match t.index with
  | Built i -> i
  | Unbuilt ->
      (* Benign race: concurrent forcing computes equal indexes and one
         single-word write wins. The chase engines pre-force indexes of
         shared sets before fanning out, so in practice this runs in the
         coordinator. *)
      let i = index_of_set t.set in
      t.index <- Built i;
      i
  | Lazy_extend { base; other } ->
      let bidx = index base in
      let oidx = index other in
      Atomic.incr c_extends;
      ignore (Atomic.fetch_and_add c_delta_atoms (Atom.Set.cardinal other.set));
      let layers, n_layers =
        rebalance (oidx.layers @ bidx.layers) (oidx.n_layers + bidx.n_layers)
      in
      let i =
        { layers; n_layers; domain = Term.Set.union bidx.domain oidx.domain }
      in
      t.index <- Built i;
      i

(* Extend the indexed (preferring the larger) side by the other's delta. *)
let base_and_other a b =
  match (is_indexed a, is_indexed b) with
  | true, false -> (a, b)
  | false, true -> (b, a)
  | true, true | false, false ->
      if Atom.Set.cardinal a.set >= Atom.Set.cardinal b.set then (a, b)
      else (b, a)

(* The one way an index grows: a disjoint union shares the delta side's
   layers wholesale, and lazily — each delta atom is indexed at most once
   per chase, and not at all when the union's index is never consulted
   (a chase's final stage). With no index on either side, stay lazy. The
   disjointness precondition is not checked — a violation would double
   atoms inside index tables (the [set] itself stays correct). *)
let union_disjoint a b =
  if is_empty a then b
  else if is_empty b then a
  else
    let base, other = base_and_other a b in
    if not (is_indexed base) then of_set (Atom.Set.union a.set b.set)
    else
      {
        set = Atom.Set.union base.set other.set;
        index = Lazy_extend { base; other };
        views = [];
      }

let add a t = if mem a t then t else union_disjoint t (of_list [ a ])

let union a b =
  if is_empty a then b
  else if is_empty b then a
  else
    let base, other = base_and_other a b in
    if not (is_indexed base) then of_set (Atom.Set.union a.set b.set)
    else union_disjoint base (of_set (Atom.Set.diff other.set base.set))

(* Removal never edits an index: a disjoint [b] leaves [a] (index and
   views) as it is, anything else yields an unindexed set rebuilt on
   first use. *)
let diff a b =
  if Atom.Set.disjoint a.set b.set then a
  else of_set (Atom.Set.diff a.set b.set)

let remove a t =
  if not (Atom.Set.mem a t.set) then t
  else diff t (of_set (Atom.Set.singleton a))

let inter a b = of_set (Atom.Set.inter a.set b.set)
let subset a b = Atom.Set.subset a.set b.set
let equal a b = Atom.Set.equal a.set b.set
let filter f t = of_set (Atom.Set.filter f t.set)
let domain t = (index t).domain

let by_rel t rel =
  List.concat_map
    (fun (b : bucket) -> Array.to_list b.atoms)
    (rel_buckets (index t) (Symbol.id rel))

let iter_rows t rel f =
  List.iter
    (fun (b : bucket) ->
      for row = 0 to b.n - 1 do
        f b.atoms b.ids row
      done)
    (rel_buckets (index t) (Symbol.id rel))

(* Sorted views live in the set they index and die with it. A lookup
   reads [t.views] without a lock (a single-word read of an immutable
   list, the same benign race as [index]); a build sorts outside the
   lock and publishes under [views_lock], re-checking first, so two
   domains never lose each other's views. The slab is the index's own
   bucket when the relation sits in one layer, and is concatenated once
   (newest layer first, the {!by_rel} order) and shared by every key
   order otherwise. Nullary relations get width-1 rows of zeros. *)
let views_lock = Mutex.create ()

let find_view views sid kpos =
  List.find_opt (fun v -> v.v_sid = sid && v.v_kpos = kpos) views

let rel_slab t sid arity =
  match List.find_opt (fun v -> v.v_sid = sid) t.views with
  | Some v -> v.v_ids
  | None -> (
      match rel_buckets (index t) sid with
      | bs when arity = 0 ->
          Array.make (List.fold_left (fun n (b : bucket) -> n + b.n) 0 bs) 0
      | [ b ] -> b.ids
      | bs -> Array.concat (List.map (fun (b : bucket) -> b.ids) bs))

let build_view t sid arity kpos =
  let width = max arity 1 in
  let ids = rel_slab t sid arity in
  let perm = Array.init (Array.length ids / width) Fun.id in
  let nk = Array.length kpos in
  Array.sort
    (fun a b ->
      let rec go k =
        if k = nk then Int.compare a b
        else
          let c =
            Int.compare ids.((a * width) + kpos.(k)) ids.((b * width) + kpos.(k))
          in
          if c <> 0 then c else go (k + 1)
      in
      go 0)
    perm;
  Atomic.incr c_views;
  { v_sid = sid; v_kpos = kpos; v_ids = ids; v_perm = perm }

let sorted_view t rel kpos =
  let sid = Symbol.id rel and arity = Symbol.arity rel in
  let v =
    match find_view t.views sid kpos with
    | Some v -> v
    | None ->
        let v = build_view t sid arity kpos in
        Mutex.protect views_lock (fun () ->
            match find_view t.views sid kpos with
            | Some v -> v
            | None ->
                t.views <- v :: t.views;
                v)
  in
  (v.v_ids, max arity 1, v.v_perm)

(* The compiled join's candidate enumeration: [bound_pos]/[bound_ids]
   hold [nb] (position, term id) constraints from index [off] on, in
   caller-owned arrays — no per-node allocation. Rows are visited
   without the bound filter (the caller's register machine re-checks
   every position); the seed constraint is chosen *per layer* (each
   layer's filtered candidate order is canonical, so per-layer seeds
   never permute the final enumeration). With at least two constraints and a non-trivial seed
   posting, the two smallest postings are merge-intersected — ascending
   row walks, zero allocation — before the rows reach the caller. *)
let intersect_min = 8

let iter_join_candidates t rel ~bound_pos ~bound_ids ~off ~nb f =
  if nb = 0 then iter_rows t rel f
  else begin
    let idx = index t in
    let sid = Symbol.id rel in
    let arity = Symbol.arity rel in
    let probes = ref 0 in
    List.iter
      (fun l ->
        match Hashtbl.find_opt l.l_rel sid with
        | None -> ()
        | Some b ->
            (* Find the two smallest postings among the constraints; a
               missing posting means the layer has no matching fact. *)
            let seed = ref ([||] : int array)
            and second = ref ([||] : int array)
            and sn = ref max_int
            and sn2 = ref max_int
            and dead = ref false in
            for c = off to off + nb - 1 do
              if not !dead then begin
                incr probes;
                match
                  Hashtbl.find_opt l.l_posts
                    (sid, (bound_ids.(c) * arity) + bound_pos.(c))
                with
                | None -> dead := true
                | Some rows ->
                    let n = Array.length rows in
                    if n < !sn then begin
                      second := !seed;
                      sn2 := !sn;
                      seed := rows;
                      sn := n
                    end
                    else if n < !sn2 then begin
                      second := rows;
                      sn2 := n
                    end
              end
            done;
            if not !dead then
              if nb >= 2 && !sn >= intersect_min then begin
                (* Merge-intersect the two smallest ascending postings;
                   survivors come out in ascending row order — the
                   canonical per-layer order. *)
                Atomic.incr c_posting_intersections;
                let a = !seed and b2 = !second in
                let na = Array.length a and nb2 = Array.length b2 in
                let i = ref 0 and j = ref 0 in
                while !i < na && !j < nb2 do
                  let ra = Array.unsafe_get a !i
                  and rb = Array.unsafe_get b2 !j in
                  if ra < rb then incr i
                  else if rb < ra then incr j
                  else begin
                    f b.atoms b.ids ra;
                    incr i;
                    incr j
                  end
                done
              end
              else Array.iter (fun row -> f b.atoms b.ids row) !seed)
      idx.layers;
    ignore (Atomic.fetch_and_add c_posting_probes !probes)
  end

(* Every atom with [term] in some argument position, in [Atom.Set]
   order (the order a filter over [atoms] would produce). One index
   probe per (layer, relation, position) replaces the full scan callers
   like [Engine.birth_atom] used to pay per term. *)
let atoms_with_term t (term : Term.t) =
  let idx = index t in
  let acc = ref Atom.Set.empty in
  List.iter
    (fun l ->
      List.iter
        (fun sym ->
          let sid = Symbol.id sym in
          let arity = Symbol.arity sym in
          for pos = 0 to arity - 1 do
            match Hashtbl.find_opt l.l_posts (sid, (term.Term.id * arity) + pos) with
            | None -> ()
            | Some rows -> (
                match Hashtbl.find_opt l.l_rel sid with
                | None -> ()
                | Some b ->
                    Array.iter
                      (fun row -> acc := Atom.Set.add b.atoms.(row) !acc)
                      rows)
          done)
        l.l_syms)
    idx.layers;
  Atom.Set.elements !acc

let restrict t allowed =
  filter
    (fun a -> List.for_all (fun term -> Term.Set.mem term allowed) (Atom.args a))
    t

(* Sorted by rendered text, like [Cq.pp]: the printed set does not depend
   on the order its terms were interned. *)
let pp ppf t =
  let lines =
    List.sort String.compare (List.map (Fmt.str "%a" Atom.pp) (atoms t))
  in
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut Fmt.string) lines
