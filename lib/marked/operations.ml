open Logic

type classification =
  | Cut of Atom.t
  | Reduce of { level : int; red : Atom.t; green : Atom.t }
  | Fuse of { level : int; z : Term.t; z' : Term.t }
  | Unsatisfiable

let in_edges q x =
  List.filter (fun a -> Term.equal (Atom.arg a 1) x) q.Marked_query.atoms

let out_edges q x =
  List.filter (fun a -> Term.equal (Atom.arg a 0) x) q.Marked_query.atoms

let classify q x =
  let ins = in_edges q x in
  let with_levels =
    List.sort
      (fun (l1, _) (l2, _) -> Int.compare l2 l1)
      (List.map (fun a -> (Marked_query.level_of q a, a)) ins)
  in
  (* A same-level pair anywhere triggers fuse first. *)
  let rec find_fuse = function
    | (l1, a1) :: ((l2, a2) :: _ as rest) ->
        if l1 = l2 then Some (l1, a1, a2) else find_fuse rest
    | _ -> None
  in
  match with_levels with
  | [] -> Unsatisfiable (* cannot happen for variables drawn from atoms *)
  | [ (_, a) ] -> Cut a
  | _ -> (
      match find_fuse with_levels with
      | Some (level, a1, a2) ->
          Fuse { level; z = Atom.arg a1 0; z' = Atom.arg a2 0 }
      | None -> (
          match with_levels with
          | [ (l1, red); (l2, green) ] when l1 = l2 + 1 ->
              Reduce { level = l1; red; green }
          | _ -> Unsatisfiable))

let maximal_var q =
  let candidates =
    List.filter
      (fun v ->
        (not (Term.Set.mem v q.Marked_query.marked)) && out_edges q v = [])
      (Marked_query.vars q)
  in
  match candidates with
  | [] -> None
  | x :: _ -> Some (x, classify q x)

let remake q ~atoms ~marked ~free =
  (* Prune the marking to the surviving variables (plus representatives). *)
  let var_set = Term.Set.of_list (List.concat_map Atom.vars atoms) in
  let rep_set = Term.Set.of_list (List.map snd free) in
  let surviving = Term.Set.union var_set rep_set in
  Marked_query.make ~levels:q.Marked_query.levels ~free
    ~marked:(Term.Set.inter marked surviving)
    atoms

let apply q _x classification =
  match classification with
  | Unsatisfiable -> []
  | Cut atom ->
      let atoms =
        List.filter (fun a -> not (Atom.equal a atom)) q.Marked_query.atoms
      in
      [
        remake q ~atoms ~marked:q.Marked_query.marked ~free:q.Marked_query.free;
      ]
  | Fuse { z; z'; _ } ->
      if Term.equal z z' then
        (* Two identical atoms cannot coexist in a set; guard anyway. *)
        [ q ]
      else
        let s = Term.subst_of_bindings [ (z', z) ] in
        let atoms = List.map (Atom.subst s) q.Marked_query.atoms in
        let free =
          List.map
            (fun (orig, rep) ->
              (orig, if Term.equal rep z' then z else rep))
            q.Marked_query.free
        in
        let marked =
          Term.Set.map
            (fun v -> if Term.equal v z' then z else v)
            q.Marked_query.marked
        in
        [ remake q ~atoms ~marked ~free ]
  | Reduce { level; red; green } ->
      let x_r = Atom.arg red 0 and x_g = Atom.arg green 0 in
      let upper = q.Marked_query.levels.(level) in
      let lower = q.Marked_query.levels.(level - 1) in
      let x1 = Cq.fresh_var ~prefix:"m'" () in
      let x2 = Cq.fresh_var ~prefix:"m''" () in
      let atoms =
        Atom.make lower [ x1; x2 ]
        :: Atom.make lower [ x2; x_r ]
        :: Atom.make upper [ x1; x_g ]
        :: List.filter
             (fun a -> not (Atom.equal a red || Atom.equal a green))
             q.Marked_query.atoms
      in
      (* Four markings of one body: they share its proper-marking
         analysis. *)
      let plain =
        remake q ~atoms ~marked:q.Marked_query.marked ~free:q.Marked_query.free
      in
      plain
      :: List.map
           (fun extra ->
             Marked_query.remark plain
               ~marked:
                 (Term.Set.union plain.Marked_query.marked
                    (Term.Set.of_list extra)))
           [ [ x1 ]; [ x1; x2 ]; [ x2 ] ]

let step q =
  match maximal_var q with
  | None -> None
  | Some (x, c) -> Some (apply q x c)
