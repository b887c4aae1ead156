(* Unit tests for the flat atom arena and the arena-mode fact-set index:
   interning (hash-consing, growth past the initial capacity), span
   decoding, the [to_atom] bounds contract, and the posting-list paths
   behind [Fact_set.iter_join_candidates] — empty and singleton postings,
   duplicate-position atoms like R(a,a), and the merge-intersection of
   two sorted postings. The differential properties (chase and rewriting
   against naive references) live in test_properties.ml; these tests pin
   the data structure itself. *)

open Logic

let r2 = Symbol.make "AR_r2" ~arity:2
let s3 = Symbol.make "AR_s3" ~arity:3
let p1 = Symbol.make "AR_p1" ~arity:1
let c i = Term.const (Printf.sprintf "ar_c%d" i)

let atom_t = Alcotest.testable Atom.pp Atom.equal

(* ------------------------------------------------------------------ *)
(* Interning: hash-consing and span decoding                           *)
(* ------------------------------------------------------------------ *)

let test_intern_hash_consing () =
  let a = Arena.create ~initial:16 () in
  let at = Atom.make r2 [ c 1; c 2 ] in
  let id1 = Arena.intern a at in
  let id2 = Arena.intern a at in
  Alcotest.(check int) "same atom, same id" id1 id2;
  (* A structurally equal atom built separately interns to the same id
     (atom-level hash-consing over hash-consed terms). *)
  let id3 = Arena.intern a (Atom.make r2 [ c 1; c 2 ]) in
  Alcotest.(check int) "equal atom, same id" id1 id3;
  let id4 = Arena.intern a (Atom.make r2 [ c 2; c 1 ]) in
  Alcotest.(check bool) "different atom, different id" true (id1 <> id4);
  Alcotest.(check int) "two spans interned" 2 (Arena.spans a)

let test_span_decoding () =
  let a = Arena.create ~initial:4 () in
  let atoms =
    [
      Atom.make p1 [ c 0 ];
      Atom.make r2 [ c 1; c 1 ];
      Atom.make s3 [ c 1; c 2; c 3 ];
    ]
  in
  let ids = List.map (Arena.intern a) atoms in
  List.iter2
    (fun at id ->
      Alcotest.check atom_t "to_atom round-trips" at (Arena.to_atom a id);
      Alcotest.(check int)
        "rel_id is the relation's Symbol.id"
        (Symbol.id (Atom.rel at))
        (Arena.rel_id a id);
      Alcotest.(check int)
        "arity slot" (Symbol.arity (Atom.rel at)) (Arena.arity a id);
      List.iteri
        (fun pos t ->
          Alcotest.(check int)
            (Printf.sprintf "arg %d is the term id" pos)
            (Term.hash t) (Arena.arg a id pos))
        (Atom.args at))
    atoms ids;
  (* Spans are dense and contiguous: ints = sum of (2 + arity). *)
  Alcotest.(check int) "span storage" (3 + 4 + 5) (Arena.ints a);
  let st = Arena.stats a in
  Alcotest.(check int) "stats.spans" 3 st.Arena.spans;
  Alcotest.(check int) "stats.ints" 12 st.Arena.ints;
  Alcotest.(check bool) "stats.bytes covers the spans" true
    (st.Arena.bytes >= 12 * 8)

let test_growth_past_initial_capacity () =
  (* A tiny initial capacity forces both the span storage and the
     per-atom metadata through several doublings; every previously
     issued id must stay decodable afterwards. *)
  let a = Arena.create ~initial:4 () in
  let n = 2_000 in
  let mk i =
    if i mod 3 = 0 then Atom.make p1 [ c i ]
    else if i mod 3 = 1 then Atom.make r2 [ c i; c (i + 1) ]
    else Atom.make s3 [ c i; c (i + 1); c (i + 2) ]
  in
  let ids = List.init n (fun i -> (i, Arena.intern a (mk i))) in
  Alcotest.(check int) "all distinct atoms interned" n (Arena.spans a);
  List.iter
    (fun (i, id) ->
      Alcotest.check atom_t
        (Printf.sprintf "atom %d survives growth" i)
        (mk i) (Arena.to_atom a id))
    ids;
  (* Re-interning after growth still hash-conses. *)
  List.iter
    (fun (i, id) ->
      Alcotest.(check int) "stable id" id (Arena.intern a (mk i)))
    ids

let test_to_atom_bounds () =
  let a = Arena.create ~initial:4 () in
  let check_invalid id =
    match Arena.to_atom a id with
    | _ -> Alcotest.failf "to_atom %d on a 1-span arena should raise" id
    | exception Invalid_argument _ -> ()
  in
  check_invalid 0;
  ignore (Arena.intern a (Atom.make p1 [ c 0 ]));
  ignore (Arena.to_atom a 0);
  check_invalid 1;
  check_invalid (-1);
  check_invalid max_int

(* ------------------------------------------------------------------ *)
(* Posting lists through [Fact_set.iter_join_candidates]               *)
(* ------------------------------------------------------------------ *)

(* Emulate the compiled engine's caller-side re-check: visited rows are
   a superset of the candidates; filtering on the ids slab must land on
   exactly the matching facts, in [Fact_set.by_rel] order. *)
let join_filtered t rel bound =
  let bound_pos = Array.make 8 0 and bound_ids = Array.make 8 0 in
  List.iteri
    (fun i (p, tm) ->
      bound_pos.(i) <- p;
      bound_ids.(i) <- Term.hash tm)
    bound;
  let nb = List.length bound in
  let seen = ref [] in
  Fact_set.iter_join_candidates t rel ~bound_pos ~bound_ids ~nb
    (fun atoms ids row ->
      let arity = Symbol.arity rel in
      let ok = ref true in
      for i = 0 to nb - 1 do
        if ids.((row * arity) + bound_pos.(i)) <> bound_ids.(i) then
          ok := false
      done;
      if !ok then seen := atoms.(row) :: !seen);
  List.rev !seen

let check_against_candidates msg t rel bound =
  Alcotest.(check (list atom_t))
    msg
    (List.filter
       (fun a ->
         List.for_all (fun (pos, tm) -> Term.equal (Atom.arg a pos) tm) bound)
       (Fact_set.by_rel t rel))
    (join_filtered t rel bound)

let test_join_candidates_empty_and_singleton () =
  let empty = Fact_set.of_list [] in
  Alcotest.(check (list atom_t))
    "empty set, no rows" []
    (join_filtered empty r2 [ (0, c 1) ]);
  let single = Fact_set.of_list [ Atom.make r2 [ c 1; c 2 ] ] in
  check_against_candidates "singleton, matching constraint" single r2
    [ (0, c 1) ];
  Alcotest.(check (list atom_t))
    "singleton, missing posting" []
    (join_filtered single r2 [ (0, c 9) ]);
  Alcotest.(check (list atom_t))
    "wrong relation" []
    (join_filtered single p1 [ (0, c 1) ])

let test_join_candidates_duplicate_positions () =
  (* R(a,a) exercises the duplicate-position posting dedup: the same
     row appears under (pos 0, a) and (pos 1, a), and a two-sided
     constraint on [a] intersects those postings. *)
  let a = c 10 and b = c 11 in
  let t =
    Fact_set.of_list
      [
        Atom.make r2 [ a; a ];
        Atom.make r2 [ a; b ];
        Atom.make r2 [ b; a ];
        Atom.make r2 [ b; b ];
      ]
  in
  check_against_candidates "R(a,a) via both positions" t r2
    [ (0, a); (1, a) ];
  check_against_candidates "R(a,b) mixed pair" t r2 [ (0, a); (1, b) ];
  check_against_candidates "single constraint, duplicate rows once" t r2
    [ (1, a) ];
  (* Each surviving row must be visited exactly once. *)
  let rows = join_filtered t r2 [ (0, a); (1, a) ] in
  Alcotest.(check int) "no double visit" 1 (List.length rows)

let test_join_candidates_intersection_path () =
  (* Two large postings with a small intersection: enough rows on
     both sides to clear the merge-intersection threshold. *)
  let hub = c 100 in
  let left = List.init 40 (fun i -> Atom.make r2 [ hub; c (200 + i) ]) in
  let right = List.init 40 (fun i -> Atom.make r2 [ c (300 + i); hub ]) in
  let both = [ Atom.make r2 [ hub; hub ] ] in
  let t = Fact_set.of_list (left @ right @ both) in
  check_against_candidates "intersection of two long postings" t r2
    [ (0, hub); (1, hub) ];
  check_against_candidates "one-sided long posting" t r2 [ (0, hub) ];
  (* Three-column relation: constraints on the two smallest postings,
     third position re-checked by the caller. *)
  let t3 =
    Fact_set.of_list
      (List.init 30 (fun i -> Atom.make s3 [ hub; c i; hub ])
      @ [ Atom.make s3 [ hub; c 500; c 501 ] ])
  in
  check_against_candidates "arity-3, two constraints" t3 s3
    [ (0, hub); (2, hub) ];
  check_against_candidates "arity-3, all three bound" t3 s3
    [ (0, hub); (1, c 5); (2, hub) ]

let test_join_candidates_across_merged_layers () =
  (* Incremental adds force LSM layer merges (max 4 layers); the
     postings of merged layers must still answer exactly. *)
  let t = ref Fact_set.empty in
  for i = 0 to 99 do
    t := Fact_set.add (Atom.make r2 [ c (i mod 7); c (i mod 5) ]) !t
  done;
  for x = 0 to 6 do
    check_against_candidates
      (Printf.sprintf "merged layers, x=%d" x)
      !t r2
      [ (0, c x) ]
  done;
  check_against_candidates "merged layers, both bound" !t r2
    [ (0, c 3); (1, c 3) ]

let () =
  Alcotest.run "arena"
    [
      ( "intern",
        [
          Alcotest.test_case "hash-consing" `Quick test_intern_hash_consing;
          Alcotest.test_case "span decoding" `Quick test_span_decoding;
          Alcotest.test_case "growth past initial capacity" `Quick
            test_growth_past_initial_capacity;
          Alcotest.test_case "to_atom bounds" `Quick test_to_atom_bounds;
        ] );
      ( "postings",
        [
          Alcotest.test_case "empty and singleton" `Quick
            test_join_candidates_empty_and_singleton;
          Alcotest.test_case "duplicate-position atoms" `Quick
            test_join_candidates_duplicate_positions;
          Alcotest.test_case "merge-intersection path" `Quick
            test_join_candidates_intersection_path;
          Alcotest.test_case "merged LSM layers" `Quick
            test_join_candidates_across_merged_layers;
        ] );
    ]
