type t = {
  name : string;
  body : Atom.t list;
  dom_vars : Term.t list;
  head : Atom.t list;
  frontier : Term.t list;
  exist_vars : Term.t list;
  skolemized_head : Atom.t list;
}

let atom_list_vars atoms = Term.dedup (List.concat_map Atom.vars atoms)

let check_flat_atom what a =
  List.iter
    (fun t ->
      match t.Term.view with
      | Term.Var _ | Term.Const _ -> ()
      | Term.App _ ->
          invalid_arg
            (Fmt.str "Tgd.make: %s atom %a contains a functional term" what
               Atom.pp a))
    (Atom.args a)

(* Canonical form of the head: the isomorphism type of Definition 3,
   extended to multi-atom heads. Frontier variables are numbered by first
   occurrence in the head ("y_i"), existential variables likewise ("w_j"). *)
let head_isomorphism_type ~frontier_set head =
  let head_occurrence_order =
    Term.dedup
      (List.concat_map (fun a -> List.filter Term.is_var (Atom.args a)) head)
  in
  let frontier_order =
    List.filter (fun v -> Term.Set.mem v frontier_set) head_occurrence_order
  in
  let exist_order =
    List.filter
      (fun v -> not (Term.Set.mem v frontier_set))
      head_occurrence_order
  in
  let tag t =
    match t.Term.view with
    | Term.Const c -> "c:" ^ c
    | Term.App _ -> assert false
    | Term.Var _ -> (
        match List.find_index (Term.equal t) frontier_order with
        | Some i -> "y" ^ string_of_int i
        | None -> (
            match List.find_index (Term.equal t) exist_order with
            | Some j -> "w" ^ string_of_int j
            | None -> assert false))
  in
  let atom_str a =
    Fmt.str "%s/%d(%s)"
      (Symbol.name (Atom.rel a))
      (Atom.arity a)
      (String.concat "," (List.map tag (Atom.args a)))
  in
  let canon = String.concat ";" (List.map atom_str head) in
  (canon, frontier_order, exist_order)

let make ?(name = "") ?(dom_vars = []) ~body ~head () =
  if head = [] then invalid_arg "Tgd.make: empty head";
  List.iter (check_flat_atom "body") body;
  List.iter (check_flat_atom "head") head;
  List.iter
    (fun v ->
      if not (Term.is_var v) then
        invalid_arg "Tgd.make: domain variable must be a variable")
    dom_vars;
  let body_atom_vars = atom_list_vars body in
  List.iter
    (fun v ->
      if List.exists (Term.equal v) body_atom_vars then
        invalid_arg
          (Fmt.str
             "Tgd.make: domain variable %a also occurs in a body atom"
             Term.pp v))
    dom_vars;
  let universe = Term.dedup (body_atom_vars @ dom_vars) in
  let universe_set = Term.Set.of_list universe in
  let head_vars = atom_list_vars head in
  let frontier_set =
    Term.Set.of_list
      (List.filter (fun v -> Term.Set.mem v universe_set) head_vars)
  in
  let canon, frontier_order, exist_order =
    head_isomorphism_type ~frontier_set head
  in
  let exist_vars = exist_order in
  let skolem_subst =
    Term.subst_of_bindings
      (List.mapi
         (fun j w ->
           let fn = Printf.sprintf "f%d[%s]" j canon in
           (w, Term.app fn frontier_order))
         exist_vars)
  in
  let skolemized_head = List.map (Atom.subst skolem_subst) head in
  {
    name;
    body;
    dom_vars;
    head;
    frontier = frontier_order;
    exist_vars;
    skolemized_head;
  }

let name r = r.name
let body r = r.body
let head r = r.head
let dom_vars r = r.dom_vars
let frontier r = r.frontier
let exist_vars r = r.exist_vars
let body_vars r = Term.dedup (atom_list_vars r.body @ r.dom_vars)

let signature r =
  List.fold_left
    (fun acc a -> Symbol.Set.add (Atom.rel a) acc)
    Symbol.Set.empty (r.body @ r.head)

let max_arity r =
  Symbol.Set.fold (fun s acc -> max acc (Symbol.arity s)) (signature r) 0

let is_datalog r = r.exist_vars = []
let is_linear r = List.length r.body <= 1 && r.dom_vars = []
let is_detached r = r.frontier = []

let is_guarded r =
  let bv = Term.Set.of_list (body_vars r) in
  r.body = [] && r.dom_vars = []
  || List.exists
       (fun a -> Term.Set.subset bv (Term.Set.of_list (Atom.vars a)))
       r.body

let is_connected r =
  let g = Gaifman.of_atoms r.body in
  let isolated_dom_vars = List.length r.dom_vars in
  match (r.body, isolated_dom_vars) with
  | [], 0 | [], 1 -> true
  | [], _ -> false
  | _ :: _, 0 -> Gaifman.connected g
  | _ :: _, _ -> false

let is_single_head r = List.length r.head = 1
let is_frontier_one r = List.length r.frontier <= 1

let triggers r target f =
  let flexible = Term.Set.of_list (body_vars r) in
  Homomorphism.iter
    (Homomorphism.make ~domain_vars:r.dom_vars ~flexible ~pattern:r.body
       ~target ())
    f

(* Applying a trigger is the chase's innermost loop: image head terms
   directly through the (small) mapping rather than converting it to a
   generic substitution, which would rebuild an intermediate map and pay a
   memo table per substituted term. Head atoms are flat modulo Skolem
   terms, whose arguments are frontier variables. *)
let rec image sigma t =
  match t.Term.view with
  | Term.Var _ -> (
      match Term.Map.find_opt t sigma with Some u -> u | None -> t)
  | Term.Const _ -> t
  | Term.App { fn; args } -> Term.app fn (List.map (image sigma) args)

let subst_atoms sigma =
  List.map (fun a -> Atom.map_args (image sigma) a)

let apply r sigma = subst_atoms sigma r.skolemized_head

let head_witness_exists r sigma target =
  let head' = subst_atoms sigma r.head in
  Homomorphism.exists
    (Homomorphism.make
       ~flexible:(Term.Set.of_list r.exist_vars)
       ~pattern:head' ~target ())

exception Violation of Homomorphism.mapping

let violating_trigger r target =
  try
    triggers r target (fun sigma ->
        if not (head_witness_exists r sigma target) then
          raise (Violation sigma));
    None
  with Violation sigma -> Some sigma

let satisfied_in r target = violating_trigger r target = None

let refresh r =
  let all_vars =
    Term.dedup (body_vars r @ atom_list_vars r.head)
  in
  let renaming =
    Term.subst_of_bindings
      (List.map (fun v -> (v, Cq.fresh_var ~prefix:"u" ())) all_vars)
  in
  make ~name:r.name
    ~dom_vars:(List.map (Term.subst renaming) r.dom_vars)
    ~body:(List.map (Atom.subst renaming) r.body)
    ~head:(List.map (Atom.subst renaming) r.head)
    ()

let body_cq r =
  match (r.body, r.dom_vars) with
  | [], _ | _, _ :: _ -> None
  | _ :: _, [] ->
      let body_var_set = Term.Set.of_list (atom_list_vars r.body) in
      let free =
        List.filter (fun v -> Term.Set.mem v body_var_set) r.frontier
      in
      Some (Cq.make ~free r.body)

let pp ppf r =
  let pp_atoms = Fmt.list ~sep:(Fmt.any ", ") Atom.pp in
  let pp_body ppf () =
    match (r.body, r.dom_vars) with
    | [], [] -> Fmt.string ppf "true"
    | [], dv ->
        Fmt.pf ppf "dom(%a)" (Fmt.list ~sep:(Fmt.any ",") Term.pp) dv
    | atoms, [] -> pp_atoms ppf atoms
    | atoms, dv ->
        Fmt.pf ppf "%a, dom(%a)" pp_atoms atoms
          (Fmt.list ~sep:(Fmt.any ",") Term.pp)
          dv
  in
  match r.exist_vars with
  | [] -> Fmt.pf ppf "%a -> %a" pp_body () pp_atoms r.head
  | ev ->
      Fmt.pf ppf "%a -> exists %a. %a" pp_body ()
        (Fmt.list ~sep:(Fmt.any " ") Term.pp)
        ev pp_atoms r.head
