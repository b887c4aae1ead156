(* Tests for the logic substrate: terms, atoms, fact sets, Gaifman graphs,
   homomorphisms, CQs, containment, UCQs, TGDs and the parser. *)

open Logic

let sym name arity = Symbol.make name ~arity
let e = sym "E" 2
let r = sym "R" 2
let p = sym "P" 1
let c name = Term.const name
let v name = Term.var name
let atom = Atom.make

(* ------------------------------------------------------------------ *)
(* Terms                                                              *)
(* ------------------------------------------------------------------ *)

let test_hash_consing () =
  let t1 = Term.app "f" [ c "a"; c "b" ] in
  let t2 = Term.app "f" [ c "a"; c "b" ] in
  Alcotest.(check bool) "physically equal" true (t1 == t2);
  Alcotest.(check bool) "equal" true (Term.equal t1 t2);
  let t3 = Term.app "f" [ c "b"; c "a" ] in
  Alcotest.(check bool) "different args differ" false (Term.equal t1 t3);
  Alcotest.(check bool) "const vs var differ" false
    (Term.equal (c "x") (v "x"))

let test_term_measures () =
  let deep = Term.app "f" [ Term.app "f" [ c "a"; c "a" ]; c "a" ] in
  Alcotest.(check int) "depth" 2 (Term.depth deep);
  Alcotest.(check int) "dag size shares" 3 (Term.dag_size deep);
  Alcotest.(check int) "depth of const" 0 (Term.depth (c "a"))

let test_term_doubling_stays_small () =
  (* The T_d phenomenon: tree size doubles per level, DAG size is linear. *)
  let rec build n t = if n = 0 then t else build (n - 1) (Term.app "f" [ t; t ]) in
  let t = build 40 (c "a") in
  Alcotest.(check int) "dag size linear" 41 (Term.dag_size t);
  Alcotest.(check int) "depth" 40 (Term.depth t)

let test_subst () =
  let x = v "x" and y = v "y" in
  let t = Term.app "f" [ x; Term.app "g" [ y ] ] in
  let m = Term.subst_of_bindings [ (x, c "a"); (y, c "b") ] in
  let t' = Term.subst m t in
  Alcotest.(check bool) "ground after subst" true
    (Term.equal t' (Term.app "f" [ c "a"; Term.app "g" [ c "b" ] ]));
  Alcotest.(check bool) "identity subst preserves sharing" true
    (Term.subst Term.Int_map.empty t == t)

(* ------------------------------------------------------------------ *)
(* Atoms and fact sets                                                *)
(* ------------------------------------------------------------------ *)

(* The facts of [rel] meeting every [(position, term)] constraint, read
   through the join index the homomorphism engine uses: the visited rows
   are a superset, so the caller-side id check of the engine is repeated
   here. *)
let candidates fs rel ~bound =
  let arity = Symbol.arity rel in
  let bound_pos = Array.of_list (List.map fst bound) in
  let bound_ids =
    Array.of_list (List.map (fun (_, (t : Term.t)) -> t.Term.id) bound)
  in
  let nb = Array.length bound_pos in
  let acc = ref [] in
  Fact_set.iter_join_candidates fs rel ~bound_pos ~bound_ids ~nb
    (fun atoms ids row ->
      let ok = ref true in
      for i = 0 to nb - 1 do
        if ids.((row * arity) + bound_pos.(i)) <> bound_ids.(i) then
          ok := false
      done;
      if !ok then acc := atoms.(row) :: !acc);
  List.rev !acc

let test_atom_arity_check () =
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Atom.make: E expects arity 2, got 1") (fun () ->
      ignore (atom e [ c "a" ]))

let test_fact_set_ops () =
  let f1 = atom e [ c "a"; c "b" ] and f2 = atom e [ c "b"; c "c" ] in
  let fs = Fact_set.of_list [ f1; f2; f1 ] in
  Alcotest.(check int) "dedup" 2 (Fact_set.cardinal fs);
  Alcotest.(check int) "domain" 3 (Term.Set.cardinal (Fact_set.domain fs));
  Alcotest.(check bool) "mem" true (Fact_set.mem f1 fs);
  Alcotest.(check int) "by_rel" 2 (List.length (Fact_set.by_rel fs e));
  Alcotest.(check int) "candidates bound" 1
    (List.length (candidates fs e ~bound:[ (0, c "a") ]));
  let restricted = Fact_set.restrict fs (Term.Set.of_list [ c "a"; c "b" ]) in
  Alcotest.(check int) "restrict bans c" 1 (Fact_set.cardinal restricted)

let test_position_index_term_id () =
  (* The (rel, position, term) index is keyed by the hash-consed term id,
     so a structurally equal Skolem term built independently must land in
     the same bucket, and structurally distinct terms must not alias. *)
  let s1 = Term.app "sk" [ c "a" ] in
  let s2 = Term.app "sk" [ c "b" ] in
  let f1 = atom e [ s1; c "x" ] and f2 = atom e [ s2; c "x" ] in
  let fs = Fact_set.of_list [ f1; f2 ] in
  let probe = Term.app "sk" [ c "a" ] in
  (match candidates fs e ~bound:[ (0, probe) ] with
  | [ f ] ->
      Alcotest.(check bool) "fresh copy of skolem key finds its fact" true
        (Atom.equal f f1)
  | l -> Alcotest.failf "expected one candidate, got %d" (List.length l));
  Alcotest.(check int) "other skolem key" 1
    (List.length (candidates fs e ~bound:[ (0, s2) ]));
  (* A term occurring only at another position must not match; neither may
     a variable spelled like a constant in the set. *)
  Alcotest.(check int) "term absent at position" 0
    (List.length (candidates fs e ~bound:[ (0, c "x") ]));
  Alcotest.(check int) "var does not alias const" 0
    (List.length (candidates fs e ~bound:[ (1, v "x") ]));
  Alcotest.(check int) "shared second position" 2
    (List.length (candidates fs e ~bound:[ (1, c "x") ]))

let test_candidates_multi_bound () =
  (* With several (position, term) constraints the index seeds each layer
     from the smallest postings; the filtered rows must be exactly the
     matching facts, in [by_rel] order, whichever seed the selectivity
     heuristic picks. *)
  let t3 = sym "T" 3 in
  let f1 = atom t3 [ c "a"; c "b"; c "cc" ]
  and f2 = atom t3 [ c "a"; c "b"; c "d" ]
  and f3 = atom t3 [ c "a"; c "e"; c "cc" ]
  and f4 = atom t3 [ c "f"; c "b"; c "cc" ] in
  let fs = Fact_set.of_list [ f1; f2; f3; f4 ] in
  let check_bound name bound expected =
    let got = candidates fs t3 ~bound in
    Alcotest.(check int) (name ^ ": count") (List.length expected)
      (List.length got);
    List.iter
      (fun f ->
        Alcotest.(check bool) (name ^ ": member") true
          (List.exists (Atom.equal f) got))
      expected;
    let scanned =
      List.filter
        (fun f ->
          List.for_all
            (fun (pos, t) -> Term.equal (Atom.arg f pos) t)
            bound)
        (Fact_set.by_rel fs t3)
    in
    Alcotest.(check bool) (name ^ ": by_rel order") true
      (List.equal Atom.equal got scanned)
  in
  check_bound "two bound" [ (0, c "a"); (1, c "b") ] [ f1; f2 ];
  check_bound "other pair" [ (1, c "b"); (2, c "cc") ] [ f1; f4 ];
  check_bound "all three bound" [ (0, c "a"); (1, c "b"); (2, c "cc") ] [ f1 ];
  check_bound "inconsistent bounds" [ (0, c "f"); (2, c "d") ] [];
  check_bound "selective seed filters rest" [ (0, c "f"); (1, c "b") ] [ f4 ]

let test_gaifman () =
  let fs =
    Fact_set.of_list
      [ atom e [ c "a"; c "b" ]; atom e [ c "b"; c "x" ]; atom p [ c "z" ] ]
  in
  let gg = Gaifman.of_fact_set fs in
  Alcotest.(check (option int)) "dist a-x" (Some 2)
    (Gaifman.distance gg (c "a") (c "x"));
  Alcotest.(check (option int)) "disconnected" None
    (Gaifman.distance gg (c "a") (c "z"));
  Alcotest.(check bool) "not connected" false (Gaifman.connected gg);
  Alcotest.(check int) "two components" 2 (List.length (Gaifman.components gg));
  Alcotest.(check int) "degree of b" 2 (Gaifman.degree gg (c "b"));
  Alcotest.(check int) "max degree" 2 (Gaifman.max_degree gg)

(* ------------------------------------------------------------------ *)
(* Homomorphisms and CQs                                              *)
(* ------------------------------------------------------------------ *)

let path_instance n =
  Fact_set.of_list
    (List.init n (fun i ->
         atom e [ c (Printf.sprintf "n%d" i); c (Printf.sprintf "n%d" (i + 1)) ]))

let test_cq_eval () =
  let fs = path_instance 3 in
  let x = v "x" and y = v "y" and z = v "z" in
  let q2 = Cq.make ~free:[ x; z ] [ atom e [ x; y ]; atom e [ y; z ] ] in
  Alcotest.(check bool) "path of 2 holds" true
    (Cq.holds q2 fs [ c "n0"; c "n2" ]);
  Alcotest.(check bool) "wrong endpoints" false
    (Cq.holds q2 fs [ c "n0"; c "n3" ]);
  Alcotest.(check int) "two answers" 2 (List.length (Cq.answers q2 fs));
  Alcotest.(check bool) "boolean" true (Cq.boolean_holds q2 fs)

let test_cq_cycle_query () =
  let fs = path_instance 3 in
  let x = v "x" in
  let loop = Cq.make ~free:[] [ atom e [ x; x ] ] in
  Alcotest.(check bool) "no self loop" false (Cq.boolean_holds loop fs);
  let fs' = Fact_set.add (atom e [ c "n1"; c "n1" ]) fs in
  Alcotest.(check bool) "self loop found" true (Cq.boolean_holds loop fs')

let test_cq_validation () =
  let x = v "x" and y = v "y" in
  Alcotest.check_raises "empty body" (Invalid_argument "Cq.make: empty body")
    (fun () -> ignore (Cq.make ~free:[] []));
  (match Cq.make ~free:[ x ] [ atom e [ x; x ] ] with
  | q -> Alcotest.(check int) "size" 1 (Cq.size q));
  match Cq.make ~free:[ y ] [ atom e [ x; x ] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "free variable not in body should be rejected"

let test_cq_connectivity () =
  let x = v "x" and y = v "y" and z = v "z" and w = v "w" in
  let conn = Cq.make ~free:[] [ atom e [ x; y ]; atom e [ y; z ] ] in
  let disc = Cq.make ~free:[] [ atom e [ x; y ]; atom e [ z; w ] ] in
  Alcotest.(check bool) "connected" true (Cq.is_connected conn);
  Alcotest.(check bool) "disconnected" false (Cq.is_connected disc)

let test_canon_codes_share_prefix () =
  (* [exists x. W(k1, ..., k7, x, n_i)]: every canonical code starts with
     the same 18 elements (relation, arity, seven constants, the bound
     variable) and differs only in the last constant. A hash that reads
     only a code's first ten elements puts all of them in one bucket. *)
  let w = sym "Wide" 9 in
  let prefix = List.init 7 (fun i -> c (Printf.sprintf "wide_k%d" i)) in
  let x = v "x" in
  let n = 5_000 in
  let ids =
    List.init n (fun i ->
        Cq.canon_id
          (Cq.make ~free:[]
             [ atom w (prefix @ [ x; c (Printf.sprintf "wide_n%d" i) ]) ]))
  in
  Alcotest.(check int) "one id per code" n
    (List.length (List.sort_uniq Int.compare ids));
  let stats = Cq.canon_table_stats () in
  Alcotest.(check bool)
    (Printf.sprintf "longest chain %d <= 32" stats.Hashtbl.max_bucket_length)
    true
    (stats.Hashtbl.max_bucket_length <= 32)

(* Variables [prefix]0 .. [prefix](n-1), the [i]th created placed at
   position [perm i]. Fresh names get increasing term ids, and [Cq.make]
   sorts the body by them, so two placements of one structure list
   their atoms in different orders. *)
let placed_vars prefix n perm =
  let a = Array.make n (v (prefix ^ "_unused")) in
  for i = 0 to n - 1 do
    a.(perm i) <- v (Printf.sprintf "%s%d" prefix i)
  done;
  a

(* Directed cycles of length [len] over consecutive runs of [vars]. *)
let directed_cycles len vars =
  List.init (Array.length vars) (fun i ->
      let base = i - (i mod len) in
      atom e [ vars.(i); vars.(base + ((i + 1 - base) mod len)) ])

let test_canon_id_six_cycle_vs_triangles () =
  (* Every variable has one E-successor and one E-predecessor in both
     queries, so colour refinement alone cannot tell them apart. *)
  let six = Cq.make ~free:[] (directed_cycles 6 (placed_vars "hex" 6 Fun.id)) in
  let triangles =
    Cq.make ~free:[] (directed_cycles 3 (placed_vars "tri" 6 Fun.id))
  in
  Alcotest.(check bool) "different ids" false
    (Cq.canon_id six = Cq.canon_id triangles);
  Alcotest.(check bool) "not isomorphic" false
    (Containment.isomorphic six triangles)

let test_canon_id_renamed_six_cycle () =
  let six = Cq.make ~free:[] (directed_cycles 6 (placed_vars "hexa" 6 Fun.id)) in
  let renamed =
    Cq.make ~free:[]
      (directed_cycles 6 (placed_vars "hexb" 6 (fun i -> ((5 * i) + 2) mod 6)))
  in
  Alcotest.(check int) "same id" (Cq.canon_id six) (Cq.canon_id renamed)

let test_canon_id_eight_triangles () =
  (* 8 disjoint directed triangles: 3^8 * 8! leaves of the search tree
     give the same code; automorphism pruning visits a few dozen. *)
  let one =
    Cq.make ~free:[] (directed_cycles 3 (placed_vars "tria" 24 Fun.id))
  in
  let other =
    Cq.make ~free:[]
      (directed_cycles 3
         (placed_vars "trib" 24 (fun i -> ((7 * i) + 3) mod 24)))
  in
  Alcotest.(check int) "same id" (Cq.canon_id one) (Cq.canon_id other)

(* An answer variable nested only inside a functional term has no
   argument position to be read from: [make] rejects it by name. *)
let test_cq_free_var_nested () =
  let x = v "x" and y = v "y" in
  Alcotest.check_raises "nested free variable"
    (Invalid_argument "Cq.make: free variable y is not an argument of the body")
    (fun () ->
      ignore (Cq.make ~free:[ y ] [ atom e [ x; Term.app "f" [ y ] ] ]))

(* Printed text follows the rendered atoms, not the hash-cons ids: the
   variables and relations are interned in reverse name order, so the
   body's [Atom.Set] order is the reverse of the printed order. *)
let test_cq_pp_ignores_intern_order () =
  let rb = sym "PpOrderB" 2 in
  let ra = sym "PpOrderA" 2 in
  let z2 = v "pp_order_z" in
  let z1 = v "pp_order_y" in
  let z0 = v "pp_order_x" in
  let q =
    Cq.make ~free:[ z2 ]
      [ atom rb [ z1; z2 ]; atom ra [ z0; z1 ]; atom ra [ z1; z2 ] ]
  in
  Alcotest.(check string) "sorted atoms, first-occurrence existentials"
    "{(pp_order_z). exists pp_order_x pp_order_y. \
     PpOrderA(pp_order_x,pp_order_y), PpOrderA(pp_order_y,pp_order_z), \
     PpOrderB(pp_order_y,pp_order_z)}"
    (Fmt.str "%a" Cq.pp q)

let test_containment () =
  let x = v "x" and y = v "y" and z = v "z" in
  (* q1 = E(x,y),E(y,z) "path of 2"; q2 = E(x,y) "edge" — boolean. *)
  let q_path2 = Cq.make ~free:[] [ atom e [ x; y ]; atom e [ y; z ] ] in
  let q_edge = Cq.make ~free:[] [ atom e [ x; y ] ] in
  Alcotest.(check bool) "path2 implies edge" true
    (Containment.implies q_path2 q_edge);
  Alcotest.(check bool) "edge does not imply path2" false
    (Containment.implies q_edge q_path2);
  let q_selfloop = Cq.make ~free:[] [ atom e [ x; x ] ] in
  Alcotest.(check bool) "selfloop implies path2" true
    (Containment.implies q_selfloop q_path2);
  Alcotest.(check bool) "selfloop implies edge" true
    (Containment.implies q_selfloop q_edge)

let test_containment_free_vars () =
  let x = v "x" and y = v "y" and z = v "z" in
  let q1 = Cq.make ~free:[ x ] [ atom e [ x; y ]; atom e [ y; z ] ] in
  let q2 = Cq.make ~free:[ x ] [ atom e [ x; y ] ] in
  Alcotest.(check bool) "answered path implies answered edge" true
    (Containment.implies q1 q2);
  (* With different free variables the homomorphism must respect them:
     E(x,y) with free x vs E(y,x) with free x are incomparable. *)
  let q3 = Cq.make ~free:[ x ] [ atom e [ y; x ] ] in
  Alcotest.(check bool) "out-edge vs in-edge" false
    (Containment.implies q2 q3)

let test_isomorphism () =
  let x = v "x" and y = v "y" and z = v "z" in
  let q1 = Cq.make ~free:[] [ atom e [ x; y ]; atom e [ y; z ] ] in
  let q2 =
    let a = v "a" and b = v "b" and cc = v "cv" in
    Cq.make ~free:[] [ atom e [ a; b ]; atom e [ b; cc ] ]
  in
  Alcotest.(check bool) "renamed path isomorphic" true
    (Containment.isomorphic q1 q2);
  let q3 = Cq.make ~free:[] [ atom e [ x; y ]; atom e [ x; z ] ] in
  Alcotest.(check bool) "fork not isomorphic to path" false
    (Containment.isomorphic q1 q3);
  (* Two disjoint copies of an edge are equivalent (but not isomorphic) to
     one edge. *)
  let copies =
    let a = v "ia" and b = v "ib" and s = v "is" and t = v "it" in
    Cq.make ~free:[] [ atom e [ a; b ]; atom e [ s; t ] ]
  in
  let edge = Cq.make ~free:[] [ atom e [ x; y ] ] in
  Alcotest.(check bool) "equivalent" true (Containment.equivalent copies edge);
  Alcotest.(check bool) "but not isomorphic" false
    (Containment.isomorphic copies edge)

let test_query_core () =
  let x = v "x" and y = v "y" and z = v "z" in
  (* E(x,y), E(x,z): z-atom is redundant (fold z onto y). *)
  let q = Cq.make ~free:[ x ] [ atom e [ x; y ]; atom e [ x; z ] ] in
  let core = Containment.core_of_query q in
  Alcotest.(check int) "core has one atom" 1 (Cq.size core);
  Alcotest.(check bool) "core equivalent" true (Containment.equivalent q core);
  (* A genuine path of 2 is already a core. *)
  let q2 = Cq.make ~free:[ x; z ] [ atom e [ x; y ]; atom e [ y; z ] ] in
  Alcotest.(check int) "path core keeps both" 2
    (Cq.size (Containment.core_of_query q2))

let test_ucq_minimize () =
  let x = v "x" and y = v "y" and z = v "z" in
  let edge = Cq.make ~free:[] [ atom e [ x; y ] ] in
  let path2 = Cq.make ~free:[] [ atom e [ x; y ]; atom e [ y; z ] ] in
  let u = Ucq.of_list [ path2; edge ] in
  (* path2 implies edge, so path2 is redundant in the union. *)
  Alcotest.(check int) "one disjunct" 1 (Ucq.cardinal u);
  Alcotest.(check int) "edge survived" 1
    (Cq.size (List.hd (Ucq.disjuncts u)));
  let u', status = Ucq.add_minimal u path2 in
  Alcotest.(check bool) "subsumed" true (status = `Subsumed);
  Alcotest.(check int) "unchanged" 1 (Ucq.cardinal u')

(* ------------------------------------------------------------------ *)
(* TGDs                                                               *)
(* ------------------------------------------------------------------ *)

let test_skolemization_by_head_type () =
  let x = v "x" and y = v "y" and z = v "z" in
  (* Two rules with isomorphic heads must share Skolem functions
     (Definition 4: the function depends on the head type only). *)
  let r1 =
    Tgd.make ~body:[ atom e [ x; y ] ] ~head:[ atom r [ y; z ] ] ()
  in
  let r2 =
    Tgd.make ~body:[ atom p [ y ] ] ~head:[ atom r [ y; z ] ] ()
  in
  let sk1 = List.hd r1.Tgd.skolemized_head in
  let sk2 = List.hd r2.Tgd.skolemized_head in
  Alcotest.(check bool) "shared skolem" true (Atom.equal sk1 sk2)

let test_skolemization_example () =
  (* The paper's example: E(x,y,z), P(x) -> exists v. R4(y,v,z,v)
     skolemizes to R4(y, f(y,z), z, f(y,z)). *)
  let x = v "x" and y = v "y" and z = v "z" and w = v "w" in
  let e3 = sym "Et" 3 and r4 = sym "Rf" 4 in
  let rule =
    Tgd.make
      ~body:[ atom e3 [ x; y; z ]; atom p [ x ] ]
      ~head:[ atom r4 [ y; w; z; w ] ]
      ()
  in
  let sk = List.hd rule.Tgd.skolemized_head in
  (match Atom.args sk with
  | [ a1; a2; a3; a4 ] ->
      Alcotest.(check bool) "pos1 is y" true (Term.equal a1 y);
      Alcotest.(check bool) "pos3 is z" true (Term.equal a3 z);
      Alcotest.(check bool) "skolem repeated" true (Term.equal a2 a4);
      Alcotest.(check bool) "skolem is functional" true (Term.is_functional a2);
      (match a2.Term.view with
      | Term.App { args; _ } ->
          Alcotest.(check int) "skolem arity = frontier" 2 (List.length args)
      | _ -> Alcotest.fail "expected App")
  | _ -> Alcotest.fail "arity 4 expected");
  Alcotest.(check (list string)) "frontier y,z"
    [ "y"; "z" ]
    (List.map (Fmt.str "%a" Term.pp) (Tgd.frontier rule))

let test_tgd_classification () =
  let x = v "x" and y = v "y" and z = v "z" in
  let linear = Tgd.make ~body:[ atom e [ x; y ] ] ~head:[ atom e [ y; z ] ] () in
  Alcotest.(check bool) "linear" true (Tgd.is_linear linear);
  Alcotest.(check bool) "linear is guarded" true (Tgd.is_guarded linear);
  Alcotest.(check bool) "not datalog" false (Tgd.is_datalog linear);
  let dl = Tgd.make ~body:[ atom e [ x; y ] ] ~head:[ atom e [ y; x ] ] () in
  Alcotest.(check bool) "datalog" true (Tgd.is_datalog dl);
  let joined =
    Tgd.make ~body:[ atom e [ x; y ]; atom e [ y; z ] ] ~head:[ atom e [ x; z ] ] ()
  in
  Alcotest.(check bool) "join not guarded" false (Tgd.is_guarded joined);
  Alcotest.(check bool) "join connected" true (Tgd.is_connected joined);
  let disconnected =
    Tgd.make ~body:[ atom e [ x; x ]; atom e [ y; y ] ] ~head:[ atom e [ x; y ] ] ()
  in
  Alcotest.(check bool) "disconnected body" false (Tgd.is_connected disconnected);
  let detached =
    Tgd.make ~body:[ atom e [ x; y ] ] ~head:[ atom e [ z; z ] ] ()
  in
  Alcotest.(check bool) "detached" true (Tgd.is_detached detached)

let test_tgd_satisfaction () =
  let x = v "x" and y = v "y" and z = v "z" in
  let rule = Tgd.make ~body:[ atom e [ x; y ] ] ~head:[ atom e [ y; z ] ] () in
  let closed =
    Fact_set.of_list [ atom e [ c "a"; c "b" ]; atom e [ c "b"; c "b" ] ]
  in
  Alcotest.(check bool) "closed model" true (Tgd.satisfied_in rule closed);
  let open_ = Fact_set.of_list [ atom e [ c "a"; c "b" ] ] in
  Alcotest.(check bool) "missing witness" false (Tgd.satisfied_in rule open_);
  Alcotest.(check bool) "violating trigger found" true
    (Tgd.violating_trigger rule open_ <> None)

let test_tgd_apply () =
  let x = v "x" and y = v "y" and z = v "z" in
  let rule = Tgd.make ~body:[ atom e [ x; y ] ] ~head:[ atom e [ y; z ] ] () in
  let triggers = ref [] in
  Tgd.triggers rule (path_instance 2) (fun s -> triggers := s :: !triggers);
  Alcotest.(check int) "two triggers" 2 (List.length !triggers);
  let atoms = List.concat_map (Tgd.apply rule) !triggers in
  Alcotest.(check int) "two derived atoms" 2
    (Atom.Set.cardinal (Atom.Set.of_list atoms));
  List.iter
    (fun a ->
      Alcotest.(check bool) "head relation" true
        (Symbol.equal (Atom.rel a) e);
      Alcotest.(check bool) "second arg skolem" true
        (Term.is_functional (Atom.arg a 1)))
    atoms

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

let test_parse_rule () =
  let rule = Parser.parse_rule "grid: R(x,x'), G(x,u), G(u,u') -> exists z. R(u',z), G(x',z)" in
  Alcotest.(check string) "name" "grid" (Tgd.name rule);
  Alcotest.(check int) "body size" 3 (List.length (Tgd.body rule));
  Alcotest.(check int) "head size" 2 (List.length (Tgd.head rule));
  Alcotest.(check int) "one existential" 1 (List.length (Tgd.exist_vars rule));
  Alcotest.(check int) "frontier x', u'" 2 (List.length (Tgd.frontier rule))

let test_parse_special_rules () =
  let loop = Parser.parse_rule "true -> exists x. R(x,x), G(x,x)" in
  Alcotest.(check int) "loop empty body" 0 (List.length (Tgd.body loop));
  Alcotest.(check int) "loop no dom vars" 0 (List.length (Tgd.dom_vars loop));
  let pins = Parser.parse_rule "dom(x) -> exists z z'. R(x,z), G(x,z')" in
  Alcotest.(check int) "pins dom var" 1 (List.length (Tgd.dom_vars pins));
  Alcotest.(check int) "pins two existentials" 2
    (List.length (Tgd.exist_vars pins))

let test_parse_theory_and_instance () =
  let theory =
    Parser.parse_theory ~name:"ta"
      "mother: Human(y) -> exists z. Mother(y,z)\n\
       human: Mother(x,y) -> Human(y)"
  in
  Alcotest.(check int) "two rules" 2 (List.length (Theory.rules theory));
  let inst = Parser.parse_instance "Human(abel). Mother(eve, abel)" in
  Alcotest.(check int) "two facts" 2 (Fact_set.cardinal inst);
  Alcotest.(check bool) "constants" true
    (Fact_set.mem
       (atom (sym "Human" 1) [ c "abel" ])
       inst)

let test_parse_query () =
  let q = Parser.parse_query "(x, y) :- R(x,z), G(z,y)" in
  Alcotest.(check int) "two free" 2 (List.length (Cq.free q));
  Alcotest.(check int) "two atoms" 2 (Cq.size q);
  let bq = Parser.parse_query ":- Mother(\"abel\", y)" in
  Alcotest.(check bool) "boolean" true (Cq.is_boolean bq);
  match Atom.args (List.hd (Cq.atoms bq)) with
  | [ a; _ ] -> Alcotest.(check bool) "quoted constant" true (Term.is_const a)
  | _ -> Alcotest.fail "arity"

let test_parse_errors () =
  let expect_fail input =
    match Parser.parse_rule input with
    | exception Parser.Parse_error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ input)
  in
  expect_fail "E(x,y) ->";
  expect_fail "-> E(x,y)";
  expect_fail "E(x y) -> E(x,x)";
  match Parser.parse_theory "E(x,y) -> E(y,x). E(x,y,z) -> E(x,y,z)" with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "inconsistent arity should fail"

(* ------------------------------------------------------------------ *)
(* Property tests                                                     *)
(* ------------------------------------------------------------------ *)

let gen_small_instance =
  (* Random instances over E/2 with up to 5 nodes and 8 edges. *)
  QCheck.make
    ~print:(fun edges ->
      Fmt.str "%a" Fact_set.pp
        (Fact_set.of_list
           (List.map
              (fun (i, j) ->
                atom e [ c (string_of_int i); c (string_of_int j) ])
              edges)))
    QCheck.Gen.(list_size (0 -- 8) (pair (0 -- 4) (0 -- 4)))

let fact_set_of_edges edges =
  Fact_set.of_list
    (List.map
       (fun (i, j) -> atom e [ c (string_of_int i); c (string_of_int j) ])
       edges)

let prop_hom_composition =
  (* Identity is a hom; the found retraction really maps atoms to atoms. *)
  QCheck.Test.make ~count:100 ~name:"found homomorphisms are homomorphisms"
    gen_small_instance
    (fun edges ->
      let fs = fact_set_of_edges edges in
      QCheck.assume (not (Fact_set.is_empty fs));
      let flexible = Fact_set.domain fs in
      match
        Homomorphism.find
          (Homomorphism.make ~flexible ~pattern:(Fact_set.atoms fs)
             ~target:fs ())
      with
      | None -> false
      | Some m ->
          List.for_all
            (fun a -> Fact_set.mem (Homomorphism.apply m ~flexible a) fs)
            (Fact_set.atoms fs))

let prop_containment_reflexive =
  QCheck.Test.make ~count:100 ~name:"implies is reflexive" gen_small_instance
    (fun edges ->
      QCheck.assume (edges <> []);
      let fs = fact_set_of_edges edges in
      (* Turn the instance into a boolean query over variables. *)
      let renaming =
        Term.Set.elements (Fact_set.domain fs)
        |> List.map (fun t -> (t, v ("q" ^ Fmt.str "%a" Term.pp t)))
      in
      let m =
        List.fold_left
          (fun acc (a, b) -> Term.Int_map.add (Term.hash a) b acc)
          Term.Int_map.empty renaming
      in
      let q =
        Cq.make ~free:[]
          (List.map (Atom.subst m) (Fact_set.atoms fs))
      in
      Containment.implies q q)

(* Round-trip: pretty-print a zoo rule, parse it back, compare shape. *)
let prop_rule_roundtrip =
  let rules =
    List.concat_map Theory.rules
      [
        Theories.Zoo.t_a; Theories.Zoo.t_p; Theories.Zoo.t_loopcut;
        Theories.Zoo.t_sticky; Theories.Zoo.t_c; Theories.Zoo.t_d;
        Theories.Zoo.t_ex66; Theories.Zoo.t_spouse;
      ]
  in
  QCheck.Test.make ~count:(List.length rules)
    ~name:"rule pretty-print / parse round-trip"
    (QCheck.make (QCheck.Gen.int_bound (List.length rules - 1)))
    (fun i ->
      let rule = List.nth rules i in
      let printed = Fmt.str "%a" Tgd.pp rule in
      let reparsed = Parser.parse_rule printed in
      List.length (Tgd.body rule) = List.length (Tgd.body reparsed)
      && List.length (Tgd.head rule) = List.length (Tgd.head reparsed)
      && List.length (Tgd.exist_vars rule)
         = List.length (Tgd.exist_vars reparsed)
      && List.length (Tgd.dom_vars rule)
         = List.length (Tgd.dom_vars reparsed)
      && List.length (Tgd.frontier rule)
         = List.length (Tgd.frontier reparsed))

let prop_instance_roundtrip =
  QCheck.Test.make ~count:100
    ~name:"ground instance pretty-print / parse round-trip"
    (QCheck.make QCheck.Gen.(list_size (1 -- 8) (pair (0 -- 4) (0 -- 4))))
    (fun edges ->
      let fs = fact_set_of_edges edges in
      let printed = Fmt.str "%a" Fact_set.pp fs in
      Fact_set.equal fs (Parser.parse_instance printed))

let prop_incremental_index_equiv =
  (* A fact set grown by a random interleaving of add/union/diff — whose
     index is extended by delta layers and shared structurally — must
     answer every probe exactly like a set rebuilt from scratch from its
     atoms (which gets a fresh single-layer index). *)
  let gen_ops =
    QCheck.Gen.(
      list_size (1 -- 12)
        (pair (0 -- 2) (list_size (0 -- 6) (pair (0 -- 4) (0 -- 4)))))
  in
  let print_ops ops =
    String.concat "; "
      (List.map
         (fun (op, edges) ->
           Printf.sprintf "%s %s"
             (match op with 0 -> "add" | 1 -> "union" | _ -> "diff")
             (String.concat ","
                (List.map (fun (i, j) -> Printf.sprintf "%d-%d" i j) edges)))
         ops)
  in
  QCheck.Test.make ~count:200 ~name:"incremental index = rebuilt index"
    (QCheck.make ~print:print_ops gen_ops)
    (fun ops ->
      let apply fs (op, edges) =
        let other = fact_set_of_edges edges in
        match op with
        | 0 ->
            List.fold_left
              (fun acc a -> Fact_set.add a acc)
              fs (Fact_set.atoms other)
        | 1 -> Fact_set.union fs other
        | _ -> Fact_set.diff fs other
      in
      let fs = List.fold_left apply Fact_set.empty ops in
      let rebuilt = Fact_set.of_list (Fact_set.atoms fs) in
      let same_answers l1 l2 =
        (* Bucket order may differ between a layered and a fresh index;
           only the answer set is specified. *)
        Atom.Set.equal (Atom.Set.of_list l1) (Atom.Set.of_list l2)
      in
      let nodes = List.init 5 (fun i -> c (string_of_int i)) in
      Fact_set.equal fs rebuilt
      && Term.Set.equal (Fact_set.domain fs) (Fact_set.domain rebuilt)
      && same_answers (Fact_set.by_rel fs e) (Fact_set.by_rel rebuilt e)
      && List.for_all
           (fun ti ->
             same_answers
               (candidates fs e ~bound:[ (0, ti) ])
               (candidates rebuilt e ~bound:[ (0, ti) ])
             && List.for_all
                  (fun tj ->
                    same_answers
                      (candidates fs e ~bound:[ (0, ti); (1, tj) ])
                      (candidates rebuilt e ~bound:[ (0, ti); (1, tj) ]))
                  nodes)
           nodes)

let () =
  Alcotest.run "logic"
    [
      ( "term",
        [
          Alcotest.test_case "hash consing" `Quick test_hash_consing;
          Alcotest.test_case "measures" `Quick test_term_measures;
          Alcotest.test_case "doubling stays small" `Quick
            test_term_doubling_stays_small;
          Alcotest.test_case "substitution" `Quick test_subst;
        ] );
      ( "atom+fact_set",
        [
          Alcotest.test_case "arity check" `Quick test_atom_arity_check;
          Alcotest.test_case "fact set ops" `Quick test_fact_set_ops;
          Alcotest.test_case "position index by term id" `Quick
            test_position_index_term_id;
          Alcotest.test_case "candidates with several bounds" `Quick
            test_candidates_multi_bound;
          Alcotest.test_case "gaifman" `Quick test_gaifman;
        ] );
      ( "cq",
        [
          Alcotest.test_case "evaluation" `Quick test_cq_eval;
          Alcotest.test_case "cycle query" `Quick test_cq_cycle_query;
          Alcotest.test_case "validation" `Quick test_cq_validation;
          Alcotest.test_case "connectivity" `Quick test_cq_connectivity;
          Alcotest.test_case "canonical codes sharing a long prefix" `Quick
            test_canon_codes_share_prefix;
          Alcotest.test_case "canonical ids: 6-cycle vs two triangles" `Quick
            test_canon_id_six_cycle_vs_triangles;
          Alcotest.test_case "canonical ids: renamed 6-cycle" `Quick
            test_canon_id_renamed_six_cycle;
          Alcotest.test_case "canonical ids: 8 disjoint triangles" `Quick
            test_canon_id_eight_triangles;
          Alcotest.test_case "free variable nested in a functional term"
            `Quick test_cq_free_var_nested;
          Alcotest.test_case "printing ignores intern order" `Quick
            test_cq_pp_ignores_intern_order;
        ] );
      ( "containment",
        [
          Alcotest.test_case "boolean containment" `Quick test_containment;
          Alcotest.test_case "free variables" `Quick test_containment_free_vars;
          Alcotest.test_case "isomorphism" `Quick test_isomorphism;
          Alcotest.test_case "query core" `Quick test_query_core;
          Alcotest.test_case "ucq minimize" `Quick test_ucq_minimize;
        ] );
      ( "tgd",
        [
          Alcotest.test_case "skolem shared by head type" `Quick
            test_skolemization_by_head_type;
          Alcotest.test_case "skolem example from paper" `Quick
            test_skolemization_example;
          Alcotest.test_case "classification" `Quick test_tgd_classification;
          Alcotest.test_case "satisfaction" `Quick test_tgd_satisfaction;
          Alcotest.test_case "triggers and apply" `Quick test_tgd_apply;
        ] );
      ( "parser",
        [
          Alcotest.test_case "rule" `Quick test_parse_rule;
          Alcotest.test_case "special rules" `Quick test_parse_special_rules;
          Alcotest.test_case "theory and instance" `Quick
            test_parse_theory_and_instance;
          Alcotest.test_case "query" `Quick test_parse_query;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_hom_composition;
          QCheck_alcotest.to_alcotest prop_containment_reflexive;
          QCheck_alcotest.to_alcotest prop_rule_roundtrip;
          QCheck_alcotest.to_alcotest prop_instance_roundtrip;
          QCheck_alcotest.to_alcotest prop_incremental_index_equiv;
        ] );
    ]
