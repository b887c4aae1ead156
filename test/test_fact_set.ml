(* Unit tests for the packed fact-set index: the posting-list paths
   behind [Fact_set.iter_join_candidates] — empty and singleton
   postings, duplicate-position atoms like R(a,a), the
   merge-intersection of two sorted postings, merged LSM layers — and
   the lifetime of indexed facts, which the index must not keep alive
   once their set is dropped. The differential properties (chase and
   rewriting against naive references) live in test_properties.ml; these
   tests pin the data structure itself. *)

open Logic

let r2 = Symbol.make "AR_r2" ~arity:2
let s3 = Symbol.make "AR_s3" ~arity:3
let p1 = Symbol.make "AR_p1" ~arity:1
let c i = Term.const (Printf.sprintf "ar_c%d" i)

let atom_t = Alcotest.testable Atom.pp Atom.equal

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
  Fact_set.iter_join_candidates t rel ~bound_pos ~bound_ids ~off:0 ~nb
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

(* ------------------------------------------------------------------ *)
(* Lifetime                                                            *)
(* ------------------------------------------------------------------ *)

(* Build a fresh atom and an indexed set holding it, and return only a
   weak pointer to the atom: once the set is dropped, nothing else may
   keep the atom alive. *)
let indexed_then_dropped () =
  let at = Atom.make r2 [ c 900; Term.const "fs_lifetime" ] in
  let t = Fact_set.of_list [ at ] in
  ignore (Sys.opaque_identity (Fact_set.domain t));
  let w = Weak.create 1 in
  Weak.set w 0 (Some at);
  w

let test_dropped_set_frees_atoms () =
  let w = (Sys.opaque_identity indexed_then_dropped) () in
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "atom collected" false (Weak.check w 0)

let () =
  Alcotest.run "fact_set"
    [
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
      ( "lifetime",
        [
          Alcotest.test_case
            "an indexed fact set's atoms are collectable once it is dropped"
            `Quick test_dropped_set_frees_atoms;
        ] );
    ]
