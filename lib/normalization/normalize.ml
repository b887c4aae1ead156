open Logic

type t = {
  original : Theory.t;
  t_ii : Theory.t;
  t_iii : Theory.t;
  t_nf : Theory.t;
  nullary : Symbol.Set.t;
}

(* Registry of nullary predicates: one [M_phi] per isomorphism class of the
   separated body fragment [phi], keyed by the fragment's canonical id
   ([-1] for the empty fragment, [M_emptyset]). Symbols are numbered in
   order of first sight. *)
type m_registry = (int, Symbol.t) Hashtbl.t

let m_symbol (registry : m_registry) phi_atoms =
  let key =
    match phi_atoms with
    | [] -> -1
    | _ :: _ -> Cq.canon_id (Cq.make ~free:[] phi_atoms)
  in
  match Hashtbl.find_opt registry key with
  | Some sym -> sym
  | None ->
      let sym =
        Symbol.make
          (Printf.sprintf "M_%d" (Hashtbl.length registry + 1))
          ~arity:0
      in
      Hashtbl.add registry key sym;
      sym

(* Split a body into the connected part containing the frontier and the
   leftover fragment. Atoms without variables join the leftover. *)
let separate_body rule =
  let body = Tgd.body rule in
  let fr = Term.Set.of_list (Tgd.frontier rule) in
  let gaifman = Gaifman.of_atoms body in
  let in_frontier_component atom =
    match Atom.vars atom with
    | [] -> false
    | vs ->
        Term.Set.exists
          (fun f ->
            List.exists
              (fun v ->
                Term.equal v f || Gaifman.same_component gaifman v f)
              vs)
          fr
  in
  List.partition in_frontier_component body

let body_rewritings ?guard ?budget theory rule =
  match Tgd.body_cq rule with
  | None -> if Tgd.body rule = [] then Some [ [] ] else None
  | Some cq -> (
      let r = Rewriting.Rewrite.rewrite ?guard ?budget theory cq in
      match r.Rewriting.Rewrite.outcome with
      | Rewriting.Rewrite.Complete ->
          Some (List.map Cq.atoms (Ucq.disjuncts r.Rewriting.Rewrite.ucq))
      | _ -> None)

let normalize ?guard ?budget theory =
  let existential = Theory.existential_rules theory in
  if List.exists (fun r -> Tgd.dom_vars r <> []) (Theory.rules theory) then
    None
  else
    let registry : m_registry = Hashtbl.create 8 in
    (* STEP ONE: rewrite the bodies of the existential rules. *)
    let t_i =
      List.fold_left
        (fun acc rule ->
          match acc with
          | None -> None
          | Some rules -> (
              match body_rewritings ?guard ?budget theory rule with
              | None -> None
              | Some bodies ->
                  Some
                    (rules
                    @ List.mapi
                        (fun i body ->
                          Tgd.make
                            ~name:(Printf.sprintf "%s~%d" (Tgd.name rule) i)
                            ~body ~head:(Tgd.head rule) ())
                        bodies)))
        (Some []) existential
    in
    match t_i with
    | None -> None
    | Some t_i ->
        (* STEP TWO: separate; STEP THREE: prove the nullary predicates. *)
        let t_ii_rules = ref [] in
        let sep_m_rules = ref [] in
        List.iter
          (fun rule ->
            let beta, phi = separate_body rule in
            let m = m_symbol registry phi in
            let m_atom = Atom.make m [] in
            t_ii_rules :=
              Tgd.make
                ~name:(Tgd.name rule ^ "#cc")
                ~body:(beta @ [ m_atom ])
                ~head:(Tgd.head rule) ()
              :: !t_ii_rules;
            sep_m_rules :=
              Tgd.make ~name:(Tgd.name rule ^ "#m") ~body:phi
                ~head:[ m_atom ] ()
              :: !sep_m_rules)
          t_i;
        (* Dedup the sep_M rules (many rules share the empty fragment). *)
        let sep_m_unique =
          List.sort_uniq
            (fun r1 r2 ->
              compare
                (Fmt.str "%a" Tgd.pp r1)
                (Fmt.str "%a" Tgd.pp r2))
            !sep_m_rules
        in
        let t_iii =
          List.fold_left
            (fun acc rule ->
              match acc with
              | None -> None
              | Some rules -> (
                  match body_rewritings ?guard ?budget theory rule with
                  | None -> None
                  | Some bodies ->
                      Some
                        (rules
                        @ List.mapi
                            (fun i body ->
                              Tgd.make
                                ~name:
                                  (Printf.sprintf "%s~%d" (Tgd.name rule) i)
                                ~body ~head:(Tgd.head rule) ())
                            bodies)))
            (Some []) sep_m_unique
        in
        (match t_iii with
        | None -> None
        | Some t_iii_rules ->
            let t_ii = Theory.make ~name:(Theory.name theory ^ "#II") !t_ii_rules in
            let t_iii =
              Theory.make ~name:(Theory.name theory ^ "#III") t_iii_rules
            in
            let nullary =
              Hashtbl.fold
                (fun _ sym acc -> Symbol.Set.add sym acc)
                registry Symbol.Set.empty
            in
            Some
              {
                original = theory;
                t_ii;
                t_iii;
                t_nf =
                  Theory.make
                    ~name:(Theory.name theory ^ "#NF")
                    (Theory.rules t_ii @ Theory.rules t_iii);
                nullary;
              })

let constants t =
  let k = Symbol.Set.cardinal t.nullary in
  let rules = Theory.rules t.t_nf in
  let h =
    List.fold_left (fun acc r -> max acc (List.length (Tgd.body r))) 1 rules
  in
  let n = List.length rules in
  (* N = 1 + n + n^2 + ... + n^h, saturating. *)
  let cap_n =
    let rec go i acc power =
      if i > h then acc
      else
        let acc' = acc + power in
        if acc' < acc || power > max_int / (max n 1) then max_int
        else go (i + 1) acc' (power * max n 1)
    in
    go 0 0 1
  in
  (k, h, n, cap_n)

let crucial_bound t =
  let k, h, _, cap_n = constants t in
  if cap_n = max_int then max_int else (cap_n * h) + (k * h)
