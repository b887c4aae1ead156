open Logic

(* The marking-independent half of [is_properly_marked], computed once
   per body in [make] and shared by every marking of it ([remark]):
   reduce emits four markings of one body and [all_markings] up to 2^k. *)
type analysis = {
  cycles : Term.Set.t;  (* variables on a directed cycle: must be marked *)
  agree : Term.t list list;
      (* sources of >= 2 same-level in-edges into one variable: their
         markings must agree *)
  must_mark : Term.t list;
      (* K > 2: variables whose in-levels are not at most two adjacent
         ones, so no chase-invented term can match them *)
}

type t = {
  levels : Symbol.t array;
  free : (Term.t * Term.t) list;
  atoms : Atom.t list;
  marked : Term.Set.t;
  mutable tagged : Cq.t option option;
      (* cached [tagged_cq]; [None] = not yet computed *)
  analysis : analysis;  (* shared by the markings of one body *)
}

let marked_tag = Symbol.make "MARKED?" ~arity:1

let level_index levels rel =
  let rec go i =
    if i >= Array.length levels then None
    else if Symbol.equal levels.(i) rel then Some i
    else go (i + 1)
  in
  go 0

let dedup_terms l =
  let _, rev =
    List.fold_left
      (fun (seen, acc) x ->
        if Term.Set.mem x seen then (seen, acc)
        else (Term.Set.add x seen, x :: acc))
      (Term.Set.empty, []) l
  in
  List.rev rev

(* Variables lying on a directed cycle: SCCs of size >= 2 or self-loops
   (Tarjan). *)
let cycle_vars atoms =
  let succs = Hashtbl.create 16 in
  let verts = dedup_terms (List.concat_map Atom.vars atoms) in
  List.iter
    (fun a ->
      let s = Atom.arg a 0 and d = Atom.arg a 1 in
      let prev = Option.value ~default:[] (Hashtbl.find_opt succs (Term.hash s)) in
      Hashtbl.replace succs (Term.hash s) (d :: prev))
    atoms;
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let result = ref Term.Set.empty in
  let rec strongconnect v =
    Hashtbl.replace index (Term.hash v) !counter;
    Hashtbl.replace lowlink (Term.hash v) !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack (Term.hash v) true;
    List.iter
      (fun w ->
        if not (Hashtbl.mem index (Term.hash w)) then begin
          strongconnect w;
          Hashtbl.replace lowlink (Term.hash v)
            (min
               (Hashtbl.find lowlink (Term.hash v))
               (Hashtbl.find lowlink (Term.hash w)))
        end
        else if Option.value ~default:false (Hashtbl.find_opt on_stack (Term.hash w))
        then
          Hashtbl.replace lowlink (Term.hash v)
            (min
               (Hashtbl.find lowlink (Term.hash v))
               (Hashtbl.find index (Term.hash w))))
      (Option.value ~default:[] (Hashtbl.find_opt succs (Term.hash v)));
    if Hashtbl.find lowlink (Term.hash v) = Hashtbl.find index (Term.hash v)
    then begin
      (* Pop the SCC rooted at v. *)
      let scc = ref [] in
      let continue_ = ref true in
      while !continue_ do
        match !stack with
        | [] -> continue_ := false
        | w :: rest ->
            stack := rest;
            Hashtbl.replace on_stack (Term.hash w) false;
            scc := w :: !scc;
            if Term.equal w v then continue_ := false
      done;
      match !scc with
      | [ single ] ->
          (* Self-loop? *)
          if
            List.exists (Term.equal single)
              (Option.value ~default:[]
                 (Hashtbl.find_opt succs (Term.hash single)))
          then result := Term.Set.add single !result
      | multiple -> List.iter (fun w -> result := Term.Set.add w !result) multiple
    end
  in
  List.iter
    (fun v -> if not (Hashtbl.mem index (Term.hash v)) then strongconnect v)
    verts;
  !result

let analyze levels atoms =
  let groups = Hashtbl.create 16 in
  let in_levels = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let l = Option.get (level_index levels (Atom.rel a)) in
      let tgt = Atom.arg a 1 in
      let key = (l, Term.hash tgt) in
      let prev = Option.value ~default:[] (Hashtbl.find_opt groups key) in
      Hashtbl.replace groups key (Atom.arg a 0 :: prev);
      let ls =
        Option.value ~default:(tgt, []) (Hashtbl.find_opt in_levels tgt.Term.id)
      in
      if not (List.mem l (snd ls)) then
        Hashtbl.replace in_levels tgt.Term.id (tgt, l :: snd ls))
    atoms;
  let agree =
    Hashtbl.fold
      (fun _ sources acc ->
        match sources with _ :: _ :: _ -> sources :: acc | _ -> acc)
      groups []
  in
  let must_mark =
    if Array.length levels = 2 then []
    else
      Hashtbl.fold
        (fun _ (tgt, ls) acc ->
          match List.sort Int.compare ls with
          | [] | [ _ ] -> acc
          | [ a; b ] when b = a + 1 -> acc
          | _ -> tgt :: acc)
        in_levels []
  in
  { cycles = cycle_vars atoms; agree; must_mark }

let check_marking ~free ~var_set marked =
  List.iter
    (fun (_orig, rep) ->
      if not (Term.Set.mem rep marked) then
        invalid_arg "Marked_query.make: answer representative must be marked")
    free;
  let rep_set = Term.Set.of_list (List.map snd free) in
  if not (Term.Set.subset marked (Term.Set.union var_set rep_set)) then
    invalid_arg "Marked_query.make: marked variables must occur in the query"

let make ~levels ~free ~marked atoms =
  if Array.length levels < 2 then
    invalid_arg "Marked_query.make: need at least two levels";
  let atoms = Atom.Set.elements (Atom.Set.of_list atoms) in
  List.iter
    (fun a ->
      (match level_index levels (Atom.rel a) with
      | Some _ -> ()
      | None ->
          invalid_arg
            (Fmt.str "Marked_query.make: atom %a outside the level signature"
               Atom.pp a));
      if Atom.arity a <> 2 then
        invalid_arg "Marked_query.make: level relations must be binary";
      List.iter
        (fun t ->
          if not (Term.is_var t) then
            invalid_arg "Marked_query.make: only variables allowed")
        (Atom.args a))
    atoms;
  let var_set = Term.Set.of_list (List.concat_map Atom.vars atoms) in
  List.iter
    (fun (_orig, rep) ->
      if atoms <> [] && not (Term.Set.mem rep var_set) then
        invalid_arg
          "Marked_query.make: answer representative must occur in the body")
    free;
  check_marking ~free ~var_set marked;
  {
    levels;
    free;
    atoms;
    marked;
    tagged = None;
    analysis = analyze levels atoms;
  }

let remark q ~marked =
  check_marking ~free:q.free
    ~var_set:(Term.Set.of_list (List.concat_map Atom.vars q.atoms))
    marked;
  { q with marked; tagged = None }

let of_cq ~levels q ~marked =
  let marked =
    Term.Set.union marked (Term.Set.of_list (Cq.free q))
  in
  make ~levels
    ~free:(List.map (fun v -> (v, v)) (Cq.free q))
    ~marked (Cq.atoms q)

let vars q = dedup_terms (List.map snd q.free @ List.concat_map Atom.vars q.atoms)

let level_of q a =
  match level_index q.levels (Atom.rel a) with
  | Some i -> i
  | None -> invalid_arg "Marked_query.level_of: atom outside signature"

let atoms_at_level q i =
  List.filter (fun a -> level_of q a = i) q.atoms

let is_totally_marked q =
  List.for_all (fun v -> Term.Set.mem v q.marked) (vars q)

let is_trivial q = q.atoms = []

let is_properly_marked q =
  let an = q.analysis in
  let marked v = Term.Set.mem v q.marked in
  (* (i) an edge into a marked variable starts at a marked variable *)
  List.for_all
    (fun a -> (not (marked (Atom.arg a 1))) || marked (Atom.arg a 0))
    q.atoms
  (* (ii) cycles are marked *)
  && Term.Set.for_all marked an.cycles
  (* (iii) same-level in-edges into one variable agree on their sources *)
  && List.for_all
       (function
         | s :: rest ->
             let m = marked s in
             List.for_all (fun s' -> marked s' = m) rest
         | [] -> true)
       an.agree
  (* (iv) K > 2: in-levels of an unmarked variable are at most two,
     adjacent *)
  && List.for_all marked an.must_mark

let is_live q =
  is_properly_marked q && (not (is_totally_marked q)) && not (is_trivial q)

let all_markings ~levels q =
  let free = List.map (fun v -> (v, v)) (Cq.free q) in
  let base_marked = Term.Set.of_list (Cq.free q) in
  let optional = Cq.exist_vars q in
  let rec subsets = function
    | [] -> [ Term.Set.empty ]
    | v :: rest ->
        let smaller = subsets rest in
        smaller @ List.map (Term.Set.add v) smaller
  in
  let base = make ~levels ~free ~marked:base_marked (Cq.atoms q) in
  List.filter_map
    (fun extra ->
      let m = remark base ~marked:(Term.Set.union base_marked extra) in
      if is_properly_marked m then Some m else None)
    (subsets optional)

let to_cq q =
  if q.atoms = [] then None
  else Some (Cq.make ~free:(dedup_terms (List.map snd q.free)) q.atoms)

let tagged_cq q =
  (* Cached: the marked process keys its seen-store by the canonical id
     of this encoding ([class_key]) for every generated query, and the
     encoding caches that id. *)
  match q.tagged with
  | Some t -> t
  | None ->
      let t =
        if q.atoms = [] then None
        else
          let tags =
            List.map
              (fun v -> Atom.make marked_tag [ v ])
              (Term.Set.elements q.marked)
          in
          Some
            (Cq.make ~free:(dedup_terms (List.map snd q.free)) (q.atoms @ tags))
      in
      q.tagged <- Some t;
      t

let alias_pattern q =
  (* For each answer position, the first position sharing its rep. *)
  List.mapi
    (fun i (_, rep) ->
      let rec first j = function
        | [] -> i
        | (_, rep') :: _ when Term.equal rep rep' -> j
        | _ :: rest -> first (j + 1) rest
      in
      first 0 q.free)
    q.free

let aliased q = List.exists2 (fun i j -> i <> j) (alias_pattern q) (List.mapi (fun i _ -> i) q.free)

let class_key q =
  ( alias_pattern q,
    match tagged_cq q with Some cq -> Cq.canon_id cq | None -> -1 )

let tuple_admissible q tuple =
  if List.length tuple <> List.length q.free then None
  else
    let bindings = ref Term.Map.empty in
    let ok = ref true in
    List.iter2
      (fun (_, rep) value ->
        match Term.Map.find_opt rep !bindings with
        | Some v when not (Term.equal v value) -> ok := false
        | Some _ -> ()
        | None -> bindings := Term.Map.add rep value !bindings)
      q.free tuple;
    if !ok then Some (Term.Map.bindings !bindings) else None

let holds run q tuple =
  match tuple_admissible q tuple with
  | None -> false
  | Some bindings -> (
      let d_dom = Fact_set.domain (Chase.Engine.initial run) in
      let in_d u = Term.Set.mem u d_dom in
      if List.exists (fun (_, value) -> not (in_d value)) bindings then false
      else if q.atoms = [] then true
      else
        let init =
          List.fold_left
            (fun m (rep, value) -> Term.Map.add rep value m)
            Term.Map.empty bindings
        in
        let image_ok v u =
          if Term.Set.mem v q.marked then in_d u else not (in_d u)
        in
        match
          Homomorphism.find
            (Homomorphism.make ~init ~image_ok
               ~flexible:(Term.Set.of_list (vars q))
               ~pattern:q.atoms
               ~target:(Chase.Engine.result run)
               ())
        with
        | Some _ -> true
        | None -> false)

let pp ppf q =
  let pp_var ppf v =
    if Term.Set.mem v q.marked then Fmt.pf ppf "%a!" Term.pp v
    else Term.pp ppf v
  in
  let pp_atom ppf a =
    Fmt.pf ppf "%a(%a,%a)" Symbol.pp (Atom.rel a) pp_var (Atom.arg a 0) pp_var
      (Atom.arg a 1)
  in
  Fmt.pf ppf "<(%a). %a>"
    (Fmt.list ~sep:(Fmt.any ",") (fun ppf (_, rep) -> Term.pp ppf rep))
    q.free
    (Fmt.list ~sep:(Fmt.any ", ") pp_atom)
    q.atoms
