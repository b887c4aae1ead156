open Logic

(* Union-find over terms, by hash-consing id. *)
module Uf = struct
  type t = (int, Term.t) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let rec find (uf : t) x =
    match Hashtbl.find_opt uf (Term.hash x) with
    | None -> x
    | Some p ->
        let root = find uf p in
        if not (Term.equal root p) then Hashtbl.replace uf (Term.hash x) root;
        root

  let union uf x y =
    let rx = find uf x and ry = find uf y in
    if not (Term.equal rx ry) then Hashtbl.replace uf (Term.hash rx) ry
end

type var_kind =
  | Constant
  | Answer_var
  | Exist_var
  | Frontier_var
  | Query_var

let one_step q rule0 =
  if
    (not (Tgd.is_single_head rule0))
    || Tgd.dom_vars rule0 <> []
    || Tgd.body rule0 = []
  then []
  else begin
    (* Prefilter on the head relation before [Tgd.refresh]: refreshing
       allocates a fresh variable per rule variable, and in a theory
       sweep most rules' heads name a relation the query never mentions.
       Refresh only renames variables, so the relation symbol is the
       same before and after. *)
    let head_rel = Atom.rel (List.hd (Tgd.head rule0)) in
    let candidates =
      List.filter (fun a -> Symbol.equal (Atom.rel a) head_rel) (Cq.atoms q)
    in
    if candidates = [] then []
    else begin
    let rule = Tgd.refresh rule0 in
    let head = List.hd (Tgd.head rule) in
    let answer_vars = Term.Set.of_list (Cq.free q) in
    let exist_vars = Term.Set.of_list (Tgd.exist_vars rule) in
    let frontier_vars = Term.Set.of_list (Tgd.frontier rule) in
    let kind t =
      if Term.is_const t then Constant
      else if Term.Set.mem t answer_vars then Answer_var
      else if Term.Set.mem t exist_vars then Exist_var
      else if Term.Set.mem t frontier_vars then Frontier_var
      else Query_var
    in
    let m = List.length candidates in
    (* Enumerate non-empty subsets A of the candidate atoms. Query sizes in
       this codebase are small; cap the enumeration defensively. *)
    let subsets =
      if m = 0 then []
      else if m <= 14 then
        List.init
          ((1 lsl m) - 1)
          (fun mask0 ->
            let mask = mask0 + 1 in
            List.filteri (fun i _ -> mask land (1 lsl i) <> 0) candidates)
      else List.map (fun a -> [ a ]) candidates
    in
    let try_subset piece =
      let uf = Uf.create () in
      let ok = ref true in
      List.iter
        (fun a ->
          List.iter2
            (fun qa ha -> Uf.union uf qa ha)
            (Atom.args a) (Atom.args head))
        piece;
      (* Collect classes. *)
      let piece_set = Atom.Set.of_list piece in
      let outside_atoms =
        List.filter (fun a -> not (Atom.Set.mem a piece_set)) (Cq.atoms q)
      in
      let outside_vars =
        Term.Set.of_list (List.concat_map Atom.vars outside_atoms)
      in
      let class_members = Hashtbl.create 16 in
      let note t =
        let root = Uf.find uf t in
        let prev =
          Option.value ~default:[]
            (Hashtbl.find_opt class_members (Term.hash root))
        in
        if not (List.exists (Term.equal t) prev) then
          Hashtbl.replace class_members (Term.hash root) (t :: prev)
      in
      List.iter
        (fun a ->
          List.iter note (Atom.args a);
          List.iter note (Atom.args head))
        piece;
      (* Admissibility per class, and representative selection. *)
      let rep_of_class members =
        let consts = List.filter (fun t -> kind t = Constant) members in
        let answers = List.filter (fun t -> kind t = Answer_var) members in
        let exists_ = List.filter (fun t -> kind t = Exist_var) members in
        (match consts with
        | _ :: _ :: _ -> ok := false
        | _ -> ());
        (match answers with
        | _ :: _ :: _ -> ok := false (* two answer vars forced equal *)
        | [ _ ] when consts <> [] -> ok := false
        | _ -> ());
        (match exists_ with
        | _ :: _ :: _ -> ok := false (* distinct Skolem terms never equal *)
        | [ _ ] ->
            if
              consts <> []
              || answers <> []
              || List.exists (fun t -> kind t = Frontier_var) members
              || List.exists
                   (fun t ->
                     kind t = Query_var && Term.Set.mem t outside_vars)
                   members
            then ok := false
        | [] -> ());
        if not !ok then None
        else
          match (consts, answers) with
          | c :: _, _ -> Some c
          | [], a :: _ -> Some a
          | [], [] -> (
              (* Prefer a non-existential member so the existential class
                 vanishes naturally; otherwise any member. *)
              match List.filter (fun t -> kind t <> Exist_var) members with
              | t :: _ -> Some t
              | [] -> Some (List.hd members))
      in
      let substitution = ref Term.Int_map.empty in
      Hashtbl.iter
        (fun _root members ->
          match rep_of_class members with
          | Some rep ->
              List.iter
                (fun t ->
                  if not (Term.equal t rep) then
                    substitution := Term.Int_map.add (Term.hash t) rep !substitution)
                members
          | None -> ())
        class_members;
      if not !ok then None
      else begin
        let s = !substitution in
        let rewritten_atoms =
          List.map (Atom.subst s) (Tgd.body rule)
          @ List.map (Atom.subst s) outside_atoms
        in
        match Cq.make ~free:(Cq.free q) rewritten_atoms with
        | q' -> Some q'
        | exception Invalid_argument _ -> None
      end
    in
    List.filter_map try_subset subsets
    end
  end

let one_step_theory q theory =
  List.concat_map (one_step q) (Theory.rules theory)
