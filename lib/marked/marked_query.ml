open Logic

(* The marking-independent half of [is_properly_marked], computed once
   per body in [make] and shared by every marking of it ([remark]):
   reduce emits four markings of one body and [all_markings] up to 2^k. *)
type analysis = {
  cycles : Term.t list;  (* variables on a directed cycle: must be marked *)
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
  analysis : analysis;  (* shared by the markings of one body *)
}

let level_index levels rel =
  let rec go i =
    if i >= Array.length levels then None
    else if Symbol.equal levels.(i) rel then Some i
    else go (i + 1)
  in
  go 0

(* The body's variables sorted by term id: a variable's local number is
   its index here, found by binary search ([local]; -1 when it is not in
   the body). Lives for one [make] call. *)
let number atoms =
  let vars =
    Array.of_list
      (List.concat_map (fun a -> [ Atom.arg a 0; Atom.arg a 1 ]) atoms)
  in
  Array.sort Term.compare vars;
  let n = ref 0 in
  Array.iter
    (fun t ->
      if !n = 0 || not (Term.equal vars.(!n - 1) t) then begin
        vars.(!n) <- t;
        incr n
      end)
    vars;
  Array.sub vars 0 !n

let local vars t =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let c = Term.compare t vars.(mid) in
      if c = 0 then mid else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length vars)

(* Tarjan's strongly connected components over the local numbers:
   the variables of SCCs of size >= 2 and of self-loops. *)
let cycle_vars vars succs =
  let n = Array.length vars in
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] and counter = ref 0 and cycles = ref [] in
  let rec connect v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          connect w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      succs.(v);
    if low.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> assert false
      in
      match pop [] with
      | [ w ] when not (List.mem w succs.(w)) -> ()
      | scc -> List.iter (fun w -> cycles := vars.(w) :: !cycles) scc
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then connect v
  done;
  !cycles

let analyze levels atoms vars =
  let k = Array.length levels and n = Array.length vars in
  let succs = Array.make n [] in
  (* sources of the level-[l] in-edges of [v] at [l * n + v] *)
  let groups = Array.make (k * n) [] in
  (* in-levels of [v] as a bitmask *)
  let in_levels = Array.make n 0 in
  List.iter
    (fun a ->
      let l = Option.get (level_index levels (Atom.rel a)) in
      let s = local vars (Atom.arg a 0) and d = local vars (Atom.arg a 1) in
      succs.(s) <- d :: succs.(s);
      groups.((l * n) + d) <- Atom.arg a 0 :: groups.((l * n) + d);
      in_levels.(d) <- in_levels.(d) lor (1 lsl l))
    atoms;
  let agree =
    Array.fold_left
      (fun acc sources ->
        match sources with _ :: _ :: _ -> sources :: acc | _ -> acc)
      [] groups
  in
  let must_mark = ref [] in
  if k > 2 then
    Array.iteri
      (fun v mask ->
        let lowest = mask land (-mask) in
        (* more than one level, and not two adjacent ones *)
        if mask <> lowest && mask <> lowest lor (lowest lsl 1) then
          must_mark := vars.(v) :: !must_mark)
      in_levels;
  { cycles = cycle_vars vars succs; agree; must_mark = !must_mark }

(* Every representative is marked, and every marked variable is a
   representative or passes [in_body]. *)
let check_marking ~free ~in_body marked =
  List.iter
    (fun (_orig, rep) ->
      if not (Term.Set.mem rep marked) then
        invalid_arg "Marked_query.make: answer representative must be marked")
    free;
  Term.Set.iter
    (fun v ->
      if not (in_body v || List.exists (fun (_, rep) -> Term.equal rep v) free)
      then
        invalid_arg
          "Marked_query.make: marked variables must occur in the query")
    marked

let make ~levels ~free ~marked atoms =
  if Array.length levels < 2 then
    invalid_arg "Marked_query.make: need at least two levels";
  if Array.length levels >= Sys.int_size then
    invalid_arg "Marked_query.make: too many levels";
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
      if not (Term.is_var (Atom.arg a 0) && Term.is_var (Atom.arg a 1)) then
        invalid_arg "Marked_query.make: only variables allowed")
    atoms;
  let vars = number atoms in
  let in_body v = local vars v >= 0 in
  List.iter
    (fun (_orig, rep) ->
      if atoms <> [] && not (in_body rep) then
        invalid_arg
          "Marked_query.make: answer representative must occur in the body")
    free;
  check_marking ~free ~in_body marked;
  { levels; free; atoms; marked; analysis = analyze levels atoms vars }

let occurs atoms v =
  List.exists
    (fun a -> Term.equal (Atom.arg a 0) v || Term.equal (Atom.arg a 1) v)
    atoms

let remark q ~marked =
  (* [q.marked] is valid already: only the newly marked variables are
     looked up in the body. *)
  check_marking ~free:q.free
    ~in_body:(fun v -> Term.Set.mem v q.marked || occurs q.atoms v)
    marked;
  { q with marked }

let vars q = Term.dedup (List.map snd q.free @ List.concat_map Atom.vars q.atoms)

let level_of q a =
  match level_index q.levels (Atom.rel a) with
  | Some i -> i
  | None -> invalid_arg "Marked_query.level_of: atom outside signature"

let atoms_at_level q i =
  List.filter (fun a -> level_of q a = i) q.atoms

(* Representatives are always marked: only the body is looked at. *)
let is_totally_marked q =
  let marked v = Term.Set.mem v q.marked in
  List.for_all (fun a -> marked (Atom.arg a 0) && marked (Atom.arg a 1)) q.atoms

let is_trivial q = q.atoms = []

let is_properly_marked q =
  let an = q.analysis in
  let marked v = Term.Set.mem v q.marked in
  (* (i) an edge into a marked variable starts at a marked variable *)
  List.for_all
    (fun a -> (not (marked (Atom.arg a 1))) || marked (Atom.arg a 0))
    q.atoms
  (* (ii) cycles are marked *)
  && List.for_all marked an.cycles
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
  else Some (Cq.make ~free:(Term.dedup (List.map snd q.free)) q.atoms)

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

(* The marked front end of [Cq.canon_code], built for the one lookup
   and dropped: the seen-store keeps a query per class, so a cached
   encoding would double what it holds. An atom is [level id; src; dst];
   a representative is the token [4 * pos + 1], [pos] its place among
   the deduplicated representatives; every other variable is a vertex,
   numbered in one pass over the atoms, and the initial partition puts
   the marked vertices before the unmarked ones. *)
let class_key q =
  let reps = Array.of_list (Term.dedup (List.map snd q.free)) in
  let vertex_of : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let marked = ref [] and unmarked = ref [] in
  let token (t : Term.t) =
    let i = ref 0 in
    while !i < Array.length reps && reps.(!i).Term.id <> t.Term.id do
      incr i
    done;
    if !i < Array.length reps then (4 * !i) + 1
    else
      match Hashtbl.find vertex_of t.Term.id with
      | v -> -v - 1
      | exception Not_found ->
          let v = Hashtbl.length vertex_of in
          Hashtbl.add vertex_of t.Term.id v;
          if Term.Set.mem t q.marked then marked := v :: !marked
          else unmarked := v :: !unmarked;
          -v - 1
  in
  let template a =
    let src = token (Atom.arg a 0) in
    let dst = token (Atom.arg a 1) in
    [| Symbol.id (Atom.rel a); src; dst |]
  in
  let atoms = Array.of_list (List.map template q.atoms) in
  ( alias_pattern q,
    Cq.canon_code atoms
      ~partition:[| Array.of_list !marked; Array.of_list !unmarked |] )

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
