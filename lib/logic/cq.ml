type t = {
  free : Term.t list;
  atoms : Atom.t list;
  mutable canon_id : int;  (* interned canonical-form id; -1 = not yet computed *)
  mutable fs : Fact_set.t option;  (* cached [as_fact_set] view *)
  mutable vset : Term.Set.t option;  (* cached [var_set] *)
  mutable sig_mask : int;  (* cached signature fingerprint; 0 = not yet *)
  mutable anchors : int;  (* cached anchor fingerprint; -1 = not yet *)
  mutable profile : int array option;  (* cached distance profile *)
  mutable ecomps : Atom.t list list option;
      (* cached existential-connectivity components of the body *)
  mutable wl : int array option;  (* cached [wl_colors] *)
}

(* Atomic: fresh variables are minted from worker domains during parallel
   rewriting saturation. *)
let gensym = Atomic.make 0

let fresh_var ?(prefix = "v") () =
  Term.var (Printf.sprintf "%s#%d" prefix (1 + Atomic.fetch_and_add gensym 1))

let reserve_fresh n =
  let rec go () =
    let cur = Atomic.get gensym in
    if cur >= n || Atomic.compare_and_set gensym cur n then () else go ()
  in
  go ()

let dedup_terms l =
  let _, rev =
    List.fold_left
      (fun (seen, acc) x ->
        if Term.Set.mem x seen then (seen, acc)
        else (Term.Set.add x seen, x :: acc))
      (Term.Set.empty, []) l
  in
  List.rev rev

let body_vars atoms = dedup_terms (List.concat_map Atom.vars atoms)

let make ~free atoms =
  if atoms = [] then invalid_arg "Cq.make: empty body";
  List.iter
    (fun v ->
      if not (Term.is_var v) then
        invalid_arg "Cq.make: free answer position must be a variable")
    free;
  let atoms = Atom.Set.elements (Atom.Set.of_list atoms) in
  let bv = Term.Set.of_list (body_vars atoms) in
  List.iter
    (fun v ->
      if not (Term.Set.mem v bv) then
        invalid_arg
          (Fmt.str "Cq.make: free variable %a does not occur in the body"
             Term.pp v))
    free;
  {
    free = dedup_terms free;
    atoms;
    canon_id = -1;
    fs = None;
    vset = None;
    sig_mask = 0;
    anchors = -1;
    profile = None;
    ecomps = None;
    wl = None;
  }

let free q = q.free
let atoms q = q.atoms
let size q = List.length q.atoms

let vars q =
  dedup_terms (q.free @ body_vars q.atoms)

let var_set q =
  (* Cached (benign race, as for [as_fact_set]): the containment hot path
     builds a homomorphism problem per check and needs the flexible set
     every time. *)
  match q.vset with
  | Some s -> s
  | None ->
      let s = Term.Set.of_list (vars q) in
      q.vset <- Some s;
      s

let sig_mask q =
  if q.sig_mask <> 0 then q.sig_mask
  else begin
    let m =
      List.fold_left
        (fun acc a -> acc lor (1 lsl (Symbol.id (Atom.rel a) mod 61)))
        0 q.atoms
    in
    q.sig_mask <- m;
    m
  end

(* ------------------------------------------------------------------ *)
(* Homomorphism-invariant fingerprints                                 *)
(* ------------------------------------------------------------------ *)

(* Cheap necessary conditions for the existence of a homomorphism
   [from -> into] that fixes answer variables positionally (the test
   behind CQ containment). Care is needed about which body statistics
   are actually invariant: a homomorphism may *collapse* atoms — e.g.
   {P(x,y), P(y,z)} maps onto {P(u,u)} — so atom counts and
   per-predicate occurrence counts of [from] bound nothing in [into]
   and must not prune. What does survive every homomorphism:

   - relation support: each atom maps to an atom with the same relation
     ([sig_mask], refined exactly by the occurrence-vector support check
     in [Ucq_index]);
   - anchors: a *rigid* term (constant, functional term, or answer
     variable — the latter mapped positionally) at argument position
     [pos] of a [rel]-atom of [from] must appear identically at
     [(rel, pos)] in [into];
   - distances: edges of the Gaifman graph over *all* terms map to
     edges, so paths map to paths and
     [d_into(y_i, h(t)) <= d_from(y_i, t)] for every answer variable
     [y_i] and body term [t]. Minimizing per [(rel, pos)] gives a
     profile that must be pointwise dominated, and the pairwise
     distances between answer variables must not grow. *)

(* Anchor fingerprint: one bit per (relation, position, rigid term),
   hashed into 61 bits. A set bit of [from] missing in [into] refutes
   the homomorphism; collisions only weaken the filter, never lie. *)
let anchor_mask q =
  if q.anchors >= 0 then q.anchors
  else begin
    let free_index : (int, int) Hashtbl.t = Hashtbl.create 8 in
    List.iteri (fun i v -> Hashtbl.replace free_index v.Term.id i) q.free;
    let m =
      List.fold_left
        (fun acc a ->
          let rel = Symbol.id (Atom.rel a) in
          snd
            (List.fold_left
               (fun (pos, acc) (t : Term.t) ->
                 let tag =
                   match t.Term.view with
                   | Term.Var _ -> (
                       match Hashtbl.find_opt free_index t.Term.id with
                       | Some i -> Some ((2 * i) + 1)
                       | None -> None (* existential: not rigid *))
                   | Term.Const _ | Term.App _ -> Some (2 * t.Term.id)
                 in
                 ( pos + 1,
                   match tag with
                   | None -> acc
                   | Some tag ->
                       acc
                       lor (1 lsl ((((rel * 31) + pos) * 131 + tag) mod 61))
                 ))
               (0, acc) (Atom.args a)))
        0 q.atoms
    in
    q.anchors <- m;
    m
  end

(* Distance profile: a sorted array of packed [(key, dist)] entries,
   [key] identifying either (relation, position, answer-variable index)
   — even tags — or an (i, j) pair of answer variables — odd tags.
   Positions and answer indexes beyond 15 are skipped (both sides skip
   them identically, so the filter just loses precision). *)
let dist_cap = 1022

let hom_profile q =
  match q.profile with
  | Some p -> p
  | None ->
      let free = Array.of_list q.free in
      let nfree = min (Array.length free) 16 in
      let acc : (int, int) Hashtbl.t = Hashtbl.create 32 in
      let note key d =
        match Hashtbl.find_opt acc key with
        | Some d' when d' <= d -> ()
        | Some _ | None -> Hashtbl.replace acc key d
      in
      if nfree > 0 then begin
        let g = Gaifman.of_terms_per_atom (List.map Atom.terms q.atoms) in
        for i = 0 to nfree - 1 do
          let dist = Gaifman.distances_from g free.(i) in
          List.iter
            (fun a ->
              let rel = Symbol.id (Atom.rel a) in
              List.iteri
                (fun pos t ->
                  if pos < 16 then
                    match Term.Map.find_opt t dist with
                    | Some d ->
                        note
                          (((((rel * 16) + pos) * 16) + i) * 2)
                          (min d dist_cap)
                    | None -> ())
                (Atom.args a))
            q.atoms;
          for j = i + 1 to nfree - 1 do
            match Term.Map.find_opt free.(j) dist with
            | Some d -> note ((((i * 16) + j) * 2) + 1) (min d dist_cap)
            | None -> ()
          done
        done
      end;
      let p =
        Array.of_seq
          (Seq.map
             (fun (k, d) -> (k lsl 10) lor d)
             (Hashtbl.to_seq acc))
      in
      Array.sort compare p;
      q.profile <- Some p;
      p

(* [into]'s profile must contain every key of [from]'s with a distance
   that is no larger: a key of [from] records a finite distance that the
   homomorphic image realizes in [into]; a missing key in [into] means
   that distance is infinite there. Both arrays are sorted by key (keys
   are unique per query, so sorting the packed ints sorts the keys). *)
let profile_dominated ~from ~into =
  let pf = hom_profile from and pi = hom_profile into in
  let nf = Array.length pf and ni = Array.length pi in
  let rec go i j =
    j >= nf
    || (i < ni
       &&
       let ki = pi.(i) lsr 10 and kj = pf.(j) lsr 10 in
       if ki < kj then go (i + 1) j
       else
         ki = kj
         && pi.(i) land 1023 <= pf.(j) land 1023
         && go (i + 1) (j + 1))
  in
  go 0 0

let hom_feasible ~from ~into =
  sig_mask from land lnot (sig_mask into) = 0
  && anchor_mask from land lnot (anchor_mask into) = 0
  && profile_dominated ~from ~into

(* ------------------------------------------------------------------ *)
(* Isomorphism invariant: 1-WL color refinement                        *)
(* ------------------------------------------------------------------ *)

(* The fingerprints above are necessary conditions for a *homomorphism*
   and keep only extremal statistics (minimal distances), so they cannot
   tell apart queries that differ in which of several interchangeable
   atoms sits where — e.g. two markings of symmetric branches. One round
   of Weisfeiler-Leman color refinement per node does: every node keeps
   its own joint view of relation, position and neighborhood, and the
   positionally distinct colors of the answer variables propagate
   outward, separating the branches.

   Nodes are the direct-argument terms of the body; edges connect the
   co-arguments of each atom, labeled by (relation, position, position).
   Initial colors are isomorphism-invariant under the engine's notion
   (bound variables renamable, free variables positional, ground terms
   literal): answer variables by position, ground terms by hash-consed
   id, bound variables by their multiset of (relation, position)
   occurrence slots, and non-ground functional terms coarsely by head
   symbol and arity (their bound arguments are renamable, so their ids
   must not leak in). Refinement folds the old color with the sorted
   neighbor signatures; since the old color is folded in, the partition
   only ever splits, so it is stable as soon as the number of distinct
   colors stops growing — isomorphic queries then traverse identical
   trajectories and end on the identical sorted color array, while
   colliding arrays on non-isomorphic queries merely weaken the filter
   (never lie). *)
let wl_mix h x = ((h * 0x01000193) lxor x) land max_int

let wl_colors q =
  match q.wl with
  | Some c -> c
  | None ->
      let free_index : (int, int) Hashtbl.t = Hashtbl.create 8 in
      List.iteri
        (fun i (v : Term.t) -> Hashtbl.replace free_index v.Term.id i)
        q.free;
      let index : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let rev_nodes = ref [] in
      let node_of (t : Term.t) =
        match Hashtbl.find_opt index t.Term.id with
        | Some i -> i
        | None ->
            let i = Hashtbl.length index in
            Hashtbl.add index t.Term.id i;
            rev_nodes := t :: !rev_nodes;
            i
      in
      List.iter
        (fun a -> List.iter (fun t -> ignore (node_of t)) (Atom.args a))
        q.atoms;
      let n = Hashtbl.length index in
      let nodes = Array.of_list (List.rev !rev_nodes) in
      let tokens = Array.make n [] in
      let adj = Array.make n [] in
      List.iter
        (fun a ->
          let rel = Symbol.id (Atom.rel a) in
          let args = Array.of_list (Atom.args a) in
          Array.iteri
            (fun i t ->
              let vi = node_of t in
              tokens.(vi) <- ((rel * 131) + i) :: tokens.(vi);
              Array.iteri
                (fun j u ->
                  if j <> i then
                    adj.(vi) <-
                      ((((rel * 131) + i) * 131) + j, node_of u)
                      :: adj.(vi))
                args)
            args)
        q.atoms;
      let color = Array.make n 0 in
      Array.iteri
        (fun i (t : Term.t) ->
          color.(i) <-
            (match t.Term.view with
            | Term.Var _ -> (
                match Hashtbl.find_opt free_index t.Term.id with
                | Some pos -> wl_mix 0x9e3779b1 ((2 * pos) + 1)
                | None ->
                    List.fold_left wl_mix 0x85ebca6b
                      (List.sort Int.compare tokens.(i)))
            | Term.Const _ -> wl_mix 0x27220a95 (2 * t.Term.id)
            | Term.App { fn; args } ->
                if Term.vars t = [] then wl_mix 0x27220a95 (2 * t.Term.id)
                else
                  wl_mix
                    (wl_mix 0x165667b1 (Hashtbl.hash fn))
                    (List.length args)))
        nodes;
      let distinct () =
        let s : (int, unit) Hashtbl.t = Hashtbl.create 16 in
        Array.iter (fun c -> Hashtbl.replace s c ()) color;
        Hashtbl.length s
      in
      let rec refine rounds cnt =
        if rounds < n && cnt < n then begin
          let color' =
            Array.mapi
              (fun i c ->
                List.fold_left wl_mix (wl_mix 0x2545f491 c)
                  (List.sort Int.compare
                     (List.map
                        (fun (lbl, j) -> wl_mix lbl color.(j))
                        adj.(i))))
              color
          in
          Array.blit color' 0 color 0 n;
          let cnt' = distinct () in
          if cnt' > cnt then refine (rounds + 1) cnt'
        end
      in
      refine 0 (distinct ());
      Array.sort Int.compare color;
      q.wl <- Some color;
      color

let wl_hash q = Array.fold_left wl_mix 0x1fd3 (wl_colors q)

let wl_equal q1 q2 =
  let c1 = wl_colors q1 and c2 = wl_colors q2 in
  Array.length c1 = Array.length c2 && Array.for_all2 Int.equal c1 c2

(* Connected components of the body under *shared existential
   variables in argument position* — exactly the coupling the search
   engine sees: answer variables are pre-bound (rigid), constants and
   functional terms are matched literally, and a variable occurring
   only inside a functional term never receives a binding from that
   argument slot. Two atoms in different components constrain disjoint
   sets of bindable variables, so a conjunctive match exists iff each
   component matches independently. *)
let body_components q =
  match q.ecomps with
  | Some c -> c
  | None ->
      let fv = Term.Set.of_list q.free in
      let atoms = Array.of_list q.atoms in
      let n = Array.length atoms in
      let parent = Array.init n Fun.id in
      let rec find i =
        if parent.(i) = i then i
        else begin
          let r = find parent.(i) in
          parent.(i) <- r;
          r
        end
      in
      let union i j =
        let ri = find i and rj = find j in
        if ri <> rj then parent.(ri) <- rj
      in
      let last : (int, int) Hashtbl.t = Hashtbl.create 16 in
      Array.iteri
        (fun i a ->
          List.iter
            (fun (t : Term.t) ->
              if Term.is_var t && not (Term.Set.mem t fv) then begin
                (match Hashtbl.find_opt last t.Term.id with
                | Some j -> union i j
                | None -> ());
                Hashtbl.replace last t.Term.id i
              end)
            (Atom.args a))
        atoms;
      let groups : (int, Atom.t list) Hashtbl.t = Hashtbl.create 8 in
      let order = ref [] in
      Array.iteri
        (fun i a ->
          let r = find i in
          match Hashtbl.find_opt groups r with
          | Some l -> Hashtbl.replace groups r (a :: l)
          | None ->
              order := r :: !order;
              Hashtbl.replace groups r [ a ])
        atoms;
      let comps =
        List.rev_map
          (fun r -> List.rev (Hashtbl.find groups r))
          !order
      in
      q.ecomps <- Some comps;
      comps

let exist_vars q =
  let fv = Term.Set.of_list q.free in
  List.filter (fun v -> not (Term.Set.mem v fv)) (body_vars q.atoms)

let is_boolean q = q.free = []
let gaifman q = Gaifman.of_atoms q.atoms
let is_connected q = Gaifman.connected (gaifman q)
let as_fact_set q =
  (* Cached: containment checks repeatedly target the same query body, and
     the fact set carries the (lazily built) join index. Benign race: two
     domains may build equal views and one write wins. *)
  match q.fs with
  | Some f -> f
  | None ->
      let f = Fact_set.of_list q.atoms in
      q.fs <- Some f;
      f

let holds q target tuple =
  if List.length tuple <> List.length q.free then
    invalid_arg "Cq.holds: answer tuple arity mismatch";
  let init =
    List.fold_left2
      (fun m v a -> Term.Map.add v a m)
      Term.Map.empty q.free tuple
  in
  Homomorphism.exists
    (Homomorphism.make ~init
       ~flexible:(Term.Set.of_list (vars q))
       ~pattern:q.atoms ~target ())

let boolean_holds q target =
  Homomorphism.exists
    (Homomorphism.make
       ~flexible:(Term.Set.of_list (vars q))
       ~pattern:q.atoms ~target ())

module Tuple_set = Set.Make (struct
  type t = Term.t list

  let compare = List.compare Term.compare
end)

let answers q target =
  let results = ref Tuple_set.empty in
  Homomorphism.iter
    (Homomorphism.make
       ~flexible:(Term.Set.of_list (vars q))
       ~pattern:q.atoms ~target ())
    (fun m ->
      let tuple = List.map (fun v -> Term.Map.find v m) q.free in
      results := Tuple_set.add tuple !results);
  Tuple_set.elements !results

let subst m q =
  let atoms = List.map (Atom.subst m) q.atoms in
  let free =
    List.filter_map
      (fun v ->
        let v' = Term.subst m v in
        if Term.is_var v' then Some v' else None)
      q.free
  in
  make ~free atoms

let refresh ?(prefix = "r") q =
  let renaming =
    Term.subst_of_bindings
      (List.map (fun v -> (v, fresh_var ~prefix ())) (vars q))
  in
  (subst renaming q, renaming)

let iso_key q =
  (* Invariant under renaming of bound variables: free variables are
     identified by their position in the free list, bound variables by their
     total occurrence count in the body (counted in one pass over the
     body, not per variable — the per-variable scan made this quadratic
     in the body size). *)
  let free_index = List.mapi (fun i v -> (v, i)) q.free in
  let occ : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun a ->
      List.iter
        (fun (t : Term.t) ->
          if Term.is_var t then
            Hashtbl.replace occ t.Term.id
              (1 + Option.value ~default:0 (Hashtbl.find_opt occ t.Term.id)))
        (Atom.args a))
    q.atoms;
  let term_tag (t : Term.t) =
    match t.Term.view with
    | Term.Const name -> "c:" ^ name
    | Term.App _ -> Fmt.str "t:%a" Term.pp t
    | Term.Var _ -> (
        match List.assoc_opt t free_index with
        | Some i -> "f" ^ string_of_int i
        | None ->
            "b"
            ^ string_of_int
                (Option.value ~default:0 (Hashtbl.find_opt occ t.Term.id)))
  in
  let atom_key a =
    Symbol.name (Atom.rel a)
    ^ "("
    ^ String.concat "," (List.map term_tag (Atom.args a))
    ^ ")"
  in
  String.concat ";" (List.sort String.compare (List.map atom_key q.atoms))

(* ------------------------------------------------------------------ *)
(* Canonical identities                                                *)
(* ------------------------------------------------------------------ *)

(* A canonical *code* that determines the query up to renaming of bound
   variables (free variables correspond positionally): an int-list
   encoding of the atoms with ground terms represented by their
   hash-consed ids, free variables tagged by position and bound variables
   numbered by first occurrence along a deterministic traversal. Equal
   codes therefore certify genuine isomorphism — unlike [iso_key], which
   is only an invariant fingerprint and may collide — so the code can be
   interned and the resulting id used as a sound dedup key.

   Encoded as ints rather than a string rendering because the rewriting
   hot path canonizes every generated candidate: int conses are an order
   of magnitude cheaper than string concatenation. Each term code is
   self-delimiting (the tag determines its length, applications carry an
   explicit argument count), so concatenated codes stay uniquely
   decodable.

   The traversal order starts from an isomorphism-invariant pre-sort (so
   that many — not all — renamings of the same query agree on the code;
   misses only cost a cache entry, never a wrong answer). *)

(* Function symbols of non-ground applications, numbered process-wide so
   that codes of distinct queries are comparable. Cold path: queries
   rarely contain non-ground functional terms. *)
let fn_codes : (string, int) Hashtbl.t = Hashtbl.create 16
let fn_lock = Mutex.create ()

let fn_code fn =
  Mutex.protect fn_lock (fun () ->
      match Hashtbl.find_opt fn_codes fn with
      | Some c -> c
      | None ->
          let c = Hashtbl.length fn_codes in
          Hashtbl.add fn_codes fn c;
          c)

let canon_key q =
  let free_index : (int, int) Hashtbl.t = Hashtbl.create 8 in
  List.iteri
    (fun i v -> Hashtbl.replace free_index v.Term.id i)
    q.free;
  (* Occurrence counts of bound variables, for the iso-invariant pre-sort. *)
  let occ : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let rec count t =
    match t.Term.view with
    | Term.Const _ -> ()
    | Term.Var _ ->
        if not (Hashtbl.mem free_index t.Term.id) then
          Hashtbl.replace occ t.Term.id
            (1 + Option.value ~default:0 (Hashtbl.find_opt occ t.Term.id))
    | Term.App { args; _ } -> List.iter count args
  in
  List.iter (fun a -> List.iter count (Atom.args a)) q.atoms;
  (* Term codes: ground -> (0, hash-consed id); free var -> (1, position);
     bound var -> (2, occurrence count [pre] / first-occurrence number
     [final]); non-ground application -> (3, fn, #args, arg codes...). *)
  let code_term var_code =
    let rec go acc t =
      match t.Term.view with
      | Term.Const _ -> 0 :: t.Term.id :: acc
      | Term.Var _ -> (
          match Hashtbl.find_opt free_index t.Term.id with
          | Some i -> 1 :: i :: acc
          | None -> 2 :: var_code t.Term.id :: acc)
      | Term.App { fn; args } ->
          if Term.vars t = [] then 0 :: t.Term.id :: acc
          else
            3 :: fn_code fn :: List.length args
            :: List.fold_right (fun a acc -> go acc a) args acc
    in
    go
  in
  let code_atom var_code a =
    Symbol.id (Atom.rel a)
    :: Atom.arity a
    :: List.fold_right
         (fun t acc -> code_term var_code acc t)
         (Atom.args a) []
  in
  let ordered =
    List.map snd
      (List.stable_sort
         (fun (ka, _) (kb, _) -> List.compare Int.compare ka kb)
         (List.map
            (fun a -> (code_atom (fun id -> Hashtbl.find occ id) a, a))
            q.atoms))
  in
  let numbering : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let number id =
    match Hashtbl.find_opt numbering id with
    | Some n -> n
    | None ->
        let n = Hashtbl.length numbering in
        Hashtbl.add numbering id n;
        n
  in
  List.concat_map (code_atom number) ordered

(* Interning canonical codes gives each isomorphism class (up to the
   traversal-order caveat above) a process-wide integer identity. The
   table hashes the whole code: the polymorphic [Hashtbl.hash] reads only
   a list's first ten elements — about the first atom's relation, arity
   and arguments — and the codes of one rewriting mostly share that
   prefix, so they would share a bucket and every lookup would walk a
   chain of hundreds. The fold is finished by [Hashtbl.hash] on the int,
   which mixes the high bits into the low ones the bucket index uses. *)
module Code_table = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash code = Hashtbl.hash (List.fold_left wl_mix 0x811c9dc5 code)
end)

let canon_table : int Code_table.t = Code_table.create 1024
let canon_lock = Mutex.create ()
let canon_next = ref 0

let canon_id q =
  if q.canon_id >= 0 then q.canon_id
  else
    let key = canon_key q in
    let id =
      Mutex.protect canon_lock (fun () ->
          match Code_table.find_opt canon_table key with
          | Some id -> id
          | None ->
              let id = !canon_next in
              incr canon_next;
              Code_table.add canon_table key id;
              id)
    in
    q.canon_id <- id;
    id

let canon_table_stats () =
  Mutex.protect canon_lock (fun () -> Code_table.stats canon_table)

let pp ppf q =
  let pp_atoms = Fmt.list ~sep:(Fmt.any ", ") Atom.pp in
  match (q.free, exist_vars q) with
  | [], ev ->
      Fmt.pf ppf "{exists %a. %a}"
        (Fmt.list ~sep:(Fmt.any " ") Term.pp)
        ev pp_atoms q.atoms
  | fv, [] ->
      Fmt.pf ppf "{(%a). %a}" (Fmt.list ~sep:(Fmt.any ",") Term.pp) fv pp_atoms
        q.atoms
  | fv, ev ->
      Fmt.pf ppf "{(%a). exists %a. %a}"
        (Fmt.list ~sep:(Fmt.any ",") Term.pp)
        fv
        (Fmt.list ~sep:(Fmt.any " ") Term.pp)
        ev pp_atoms q.atoms
