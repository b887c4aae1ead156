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
}

(* Atomic, so that [fresh_var] is safe from any domain. Its callers in
   the library, the UCQ rewriting and the marked process, run on one. *)
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
  (* An answer variable must be an argument of some atom: one nested
     only inside a functional term has no position to be read from. *)
  let args = Term.Set.of_list (List.concat_map Atom.terms atoms) in
  List.iter
    (fun v ->
      if not (Term.Set.mem v args) then
        invalid_arg
          (Fmt.str "Cq.make: free variable %a is not an argument of the body"
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

(* A canonical *code*: a byte string that two queries share exactly
   when they are isomorphic — bound variables renamable, answer
   variables corresponding by position, ground terms literal. Interned,
   it names each isomorphism class by one process-wide int.

   Each atom flattens to ints: its relation's id (which fixes its
   arity), then one token per term, the kind folded into the low two
   bits: a ground term is [4 * id], an answer variable
   [4 * position + 1], a bound variable [4 * label + 2], and a
   non-ground application [4 * fn + 3] (fn numbers the symbol with its
   arity) followed by its arguments' tokens. Tokens are self-delimiting,
   so the atoms, sorted and written as varints one after another,
   determine the query up to the labelling of its bound variables.

   The labelling comes from individualisation-refinement (McKay and
   Piperno, "Practical graph isomorphism, II", arXiv 1301.1493). The
   bound variables form an ordered partition, refined by 1-WL colour
   refinement until it is stable: a cell splits by the multiset of its
   members' occurrences (the atom's shape, the position, the cells of
   the co-arguments), and the parts keep the cell's place in the order,
   so refinement commutes with renaming. A discrete partition labels
   each variable by its place: a leaf. Otherwise each member of the
   first non-singleton cell is individualised in turn (put first in its
   cell, the rest one place later) and the search recurses. The code is
   the least leaf code; the leaves of isomorphic queries correspond, so
   their least codes agree. Two leaves with equal codes reveal an
   automorphism, which maps the path of one onto the other. A child in
   the orbit of an explored sibling under the automorphisms fixing its
   path spans the same codes and is skipped, or abandoned as soon as an
   automorphism puts it there. *)

(* Function symbols of non-ground applications, numbered process-wide
   with their arity so that codes of distinct queries are comparable.
   Cold path: queries rarely contain non-ground functional terms. *)
let fn_codes : (string * int, int) Hashtbl.t = Hashtbl.create 16
let fn_lock = Mutex.create ()

let fn_code fn arity =
  Mutex.protect fn_lock (fun () ->
      match Hashtbl.find_opt fn_codes (fn, arity) with
      | Some c -> c
      | None ->
          let c = Hashtbl.length fn_codes in
          Hashtbl.add fn_codes (fn, arity) c;
          c)

let mix h x = ((h * 0x01000193) lxor x) land max_int

let scramble x =
  let x = (x lxor (x lsr 31)) * 0x2545f4914f6cdd1d in
  x lxor (x lsr 29)

let rec put_varint b x =
  if x < 0x80 then Buffer.add_char b (Char.unsafe_chr x)
  else begin
    Buffer.add_char b (Char.unsafe_chr (x land 0x7f lor 0x80));
    put_varint b (x lsr 7)
  end

let canon_key q =
  let free = Array.of_list q.free in
  let vertex_of : (int, int) Hashtbl.t = Hashtbl.create 16 in
  (* The token of a variable or constant. *)
  let simple (t : Term.t) =
    match t.Term.view with
    | Term.Const _ | Term.App _ -> 4 * t.Term.id
    | Term.Var _ -> (
        let i = ref 0 in
        while !i < Array.length free && free.(!i).Term.id <> t.Term.id do
          incr i
        done;
        if !i < Array.length free then (4 * !i) + 1
        else
          match Hashtbl.find vertex_of t.Term.id with
          | v -> -v - 1
          | exception Not_found ->
              let v = Hashtbl.length vertex_of in
              Hashtbl.add vertex_of t.Term.id v;
              -v - 1)
  in
  (* Atom templates: tokens as above, bound variable [v] as [-v - 1]. *)
  let rec tokens (t : Term.t) acc =
    match t.Term.view with
    | Term.App { fn; args } when Term.vars t <> [] ->
        ((4 * fn_code fn (List.length args)) + 3)
        :: List.fold_right tokens args acc
    | _ -> simple t :: acc
  in
  let template (a : Atom.t) =
    let args = a.Atom.args in
    if Array.exists Term.is_functional args then
      Array.of_list (Symbol.id a.Atom.rel :: Array.fold_right tokens args [])
    else
      let toks = Array.make (Array.length args + 1) (Symbol.id a.Atom.rel) in
      for i = 0 to Array.length args - 1 do
        toks.(i + 1) <- simple args.(i)
      done;
      toks
  in
  let atoms = Array.of_list (List.map template q.atoms) in
  let k = Hashtbl.length vertex_of in
  (* Per atom, the positions of its bound variables and a hash of the
     rest of it. *)
  let var_pos =
    Array.map
      (fun toks ->
        let n = ref 0 in
        Array.iter (fun x -> if x < 0 then incr n) toks;
        let vp = Array.make !n 0 in
        n := 0;
        Array.iteri
          (fun j x ->
            if x < 0 then begin
              vp.(!n) <- j;
              incr n
            end)
          toks;
        vp)
      atoms
  in
  let shape =
    Array.map
      (Array.fold_left
         (fun h x -> mix h (if x >= 0 then x + 1 else 0))
         0x811c9dc5)
      atoms
  in
  (* The atoms under [label], sorted, as varints. *)
  let leaf_code label =
    let token x = if x >= 0 then x else (4 * label.(-x - 1)) + 2 in
    let by_tokens a b =
      let ta = atoms.(a) and tb = atoms.(b) in
      let n = min (Array.length ta) (Array.length tb) in
      let i = ref 0 and c = ref 0 in
      while !c = 0 && !i < n do
        c := Int.compare (token ta.(!i)) (token tb.(!i));
        incr i
      done;
      if !c <> 0 then !c else Int.compare (Array.length ta) (Array.length tb)
    in
    let sorted = Array.init (Array.length atoms) Fun.id in
    Array.sort by_tokens sorted;
    let b = Buffer.create (8 * Array.length atoms) in
    Array.iter
      (fun a ->
        let toks = atoms.(a) in
        for i = 0 to Array.length toks - 1 do
          put_varint b (token toks.(i))
        done)
      sorted;
    Buffer.contents b
  in
  (* A partition is [colour] (vertex -> start of its cell in [order])
     and [order] (the vertices, cell by cell). A round splits each cell
     by its members' occurrence multisets, summed as scrambled hashes
     into [sg]; the parts keep the cell's place, in hash order. *)
  let sg = Array.make k 0 in
  let refine colour order =
    let rec round cells =
      Array.fill sg 0 k 0;
      Array.iteri
        (fun a toks ->
          let vp = var_pos.(a) in
          let h = ref shape.(a) in
          for i = 0 to Array.length vp - 1 do
            h := mix !h colour.(-toks.(vp.(i)) - 1)
          done;
          for i = 0 to Array.length vp - 1 do
            let v = -toks.(vp.(i)) - 1 in
            sg.(v) <- sg.(v) + scramble (mix !h vp.(i))
          done)
        atoms;
      (* Insertion sort: [order] is already sorted by cell. *)
      for i = 1 to k - 1 do
        let v = order.(i) in
        let cv = colour.(v) and sv = sg.(v) in
        let j = ref (i - 1) in
        while
          !j >= 0
          &&
          let u = order.(!j) in
          colour.(u) = cv && sg.(u) > sv
        do
          order.(!j + 1) <- order.(!j);
          decr j
        done;
        order.(!j + 1) <- v
      done;
      (* Renumber in place: [pc]/[ps] are the previous vertex's old
         colour and hash, [nc] its new colour. *)
      let pc = ref (-1) and ps = ref 0 and nc = ref 0 and n = ref 0 in
      Array.iteri
        (fun i v ->
          if colour.(v) <> !pc || sg.(v) <> !ps then begin
            nc := i;
            incr n
          end;
          pc := colour.(v);
          ps := sg.(v);
          colour.(v) <- !nc)
        order;
      if !n > cells && !n < k then round !n
    in
    if k > 1 then begin
      let cells = ref 1 in
      for i = 1 to k - 1 do
        if colour.(order.(i)) <> colour.(order.(i - 1)) then incr cells
      done;
      if !cells < k then round !cells
    end
  in
  let best = ref None and first = ref None in
  let autos = ref [] in
  let path = Array.make (k + 1) 0 in
  let explored = Array.make (k + 1) [] in
  let exception Backjump of int in
  (* Is [w] in the orbit of a child explored at [depth], under the
     automorphisms found so far that fix the path above it? *)
  let covered depth w =
    explored.(depth) <> []
    &&
    let parent = Array.init k Fun.id in
    let rec find x = if parent.(x) = x then x else find parent.(x) in
    let rec fixes g i =
      i >= depth || (g.(path.(i)) = path.(i) && fixes g (i + 1))
    in
    List.iter
      (fun g ->
        if fixes g 0 then
          Array.iteri
            (fun x y ->
              let rx = find x and ry = find y in
              if rx <> ry then parent.(rx) <- ry)
            g)
      !autos;
    let r = find w in
    List.exists (fun u -> find u = r) explored.(depth)
  in
  let leaf depth label =
    let code = leaf_code label in
    (* [other]'s leaf and this one have equal codes: the map between
       their equally labelled vertices is an automorphism. Abandon the
       highest subtree on the path that it shows to be redundant. *)
    let automorphism (_, other) =
      let inv = Array.make k 0 in
      Array.iteri (fun v l -> inv.(l) <- v) label;
      autos := Array.map (fun l -> inv.(l)) other :: !autos;
      for j = 0 to depth - 1 do
        if covered j path.(j) then raise (Backjump j)
      done
    in
    match (!first, !best) with
    | Some f, Some b ->
        if String.equal code (fst f) then automorphism f
        else
          let c = String.compare code (fst b) in
          if c = 0 then automorphism b
          else if c < 0 then best := Some (code, label)
    | _ ->
        first := Some (code, label);
        best := Some (code, label)
  in
  let rec search depth colour order =
    refine colour order;
    let rec target p =
      if p + 1 >= k then None
      else if colour.(order.(p + 1)) = p then Some p
      else target (p + 1)
    in
    match target 0 with
    | None -> leaf depth colour
    | Some c ->
        let stop = ref (c + 1) in
        while !stop < k && colour.(order.(!stop)) = c do
          incr stop
        done;
        explored.(depth) <- [];
        for p = c to !stop - 1 do
          let w = order.(p) in
          if not (covered depth w) then begin
            path.(depth) <- w;
            let colour' = Array.copy colour and order' = Array.copy order in
            for i = c + 1 to !stop - 1 do
              colour'.(order.(i)) <- c + 1
            done;
            colour'.(order.(c)) <- c + 1;
            colour'.(w) <- c;
            order'.(p) <- order.(c);
            order'.(c) <- w;
            (try search (depth + 1) colour' order'
             with Backjump j when j = depth -> ());
            explored.(depth) <- w :: explored.(depth)
          end
        done
  in
  search 0 (Array.make k 0) (Array.init k Fun.id);
  match !best with Some (code, _) -> code | None -> assert false

(* Interning canonical codes gives each isomorphism class a process-wide
   integer identity. The codes are strings, which the stdlib
   [Hashtbl.hash] reads whole, so codes that share a long prefix still
   spread over the buckets. *)
let canon_table : (string, int) Hashtbl.t = Hashtbl.create 1024
let canon_lock = Mutex.create ()

let canon_id q =
  if q.canon_id >= 0 then q.canon_id
  else
    let key = canon_key q in
    let id =
      Mutex.protect canon_lock (fun () ->
          match Hashtbl.find_opt canon_table key with
          | Some id -> id
          | None ->
              let id = Hashtbl.length canon_table in
              Hashtbl.add canon_table key id;
              id)
    in
    q.canon_id <- id;
    id

let canon_table_stats () =
  Mutex.protect canon_lock (fun () -> Hashtbl.stats canon_table)

(* Printed text does not depend on the order terms were interned (which
   [Term.compare], and so the body's [Atom.Set] order, follows): atoms
   are listed sorted by their rendered text and the existential
   variables in first-occurrence order over that list, so a resumed
   process prints a decoded query exactly as the original run did. *)
let pp ppf q =
  let atoms =
    List.map (fun a -> (Fmt.str "%a" Atom.pp a, a)) q.atoms
    |> List.sort (fun (s, _) (s', _) -> String.compare s s')
    |> List.map snd
  in
  let fv = Term.Set.of_list q.free in
  let ev = List.filter (fun v -> not (Term.Set.mem v fv)) (body_vars atoms) in
  let pp_atoms = Fmt.list ~sep:(Fmt.any ", ") Atom.pp in
  match (q.free, ev) with
  | [], ev ->
      Fmt.pf ppf "{exists %a. %a}"
        (Fmt.list ~sep:(Fmt.any " ") Term.pp)
        ev pp_atoms atoms
  | fv, [] ->
      Fmt.pf ppf "{(%a). %a}" (Fmt.list ~sep:(Fmt.any ",") Term.pp) fv pp_atoms
        atoms
  | fv, ev ->
      Fmt.pf ppf "{(%a). exists %a. %a}"
        (Fmt.list ~sep:(Fmt.any ",") Term.pp)
        fv
        (Fmt.list ~sep:(Fmt.any " ") Term.pp)
        ev pp_atoms atoms
