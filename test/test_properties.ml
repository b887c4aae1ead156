(* Property-based differential tests.

   Random single-head TGD theories, instances, and queries are drawn from
   int-encoded generators (plain tuples and lists, so QCheck's built-in
   shrinkers minimize counterexamples), then the engines are played
   against small naive references and against each other:

   - a naive homomorphism enumerator (a scan of the whole target per
     pattern atom, no index) against [Cq], [Eval] and [Containment];
   - a ~30-line naive reference chase (textbook fixpoint, no semi-naive
     deltas, no provenance, triggers from the naive enumerator) against
     [Chase.Engine.run];
   - a naive queue/[Ucq.add_minimal] rewriting against the saturation
     kernel;
   - the sequential engines against their [lib/parallel] counterparts at
     several domain counts (stages must be bit-identical, rewritings
     UCQ-equivalent);
   - rewriting-based answering against chase-based answering (the
     Theorem 1 contract), on random theories and on zoo-seeded instances.
   - table-free reference versions of the term and atom primitives, and
     a hash-table analysis of marked-query bodies against
     [Marked_query.is_properly_marked].

   FRONTIER_QCHECK_COUNT scales the number of cases per property (default
   100; CI sets a smaller value to keep the suite fast). *)

open Logic

let count =
  match Sys.getenv_opt "FRONTIER_QCHECK_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 100)
  | None -> 100

(* Long-lived pools shared by all properties (domains are expensive).
   The wider ones have no cost gate: the gate would run most of these
   small batches inline, and the cross-[-j] properties would then compare
   the sequential path with itself. *)
let pool1 = Parallel.Pool.create 1
let pool2 = Parallel.Pool.Internal.create_fanout 2
let pool3 = Parallel.Pool.Internal.create_fanout 3
let pool4 = Parallel.Pool.Internal.create_fanout 4

(* ------------------------------------------------------------------ *)
(* Generators: everything is encoded as ints so shrinking works        *)
(* ------------------------------------------------------------------ *)

let e = Symbol.make "E" ~arity:2
let r = Symbol.make "R" ~arity:2
let p = Symbol.make "P" ~arity:1
let const i = Term.const (Printf.sprintf "c%d" i)
let body_var i = Term.var (Printf.sprintf "x%d" (i mod 4))

let head_var i =
  (* 0..3 pick body variables, 4..5 existential ones. *)
  match i mod 6 with
  | j when j < 4 -> body_var j
  | j -> Term.var (Printf.sprintf "w%d" (j - 4))

(* An atom is (rel, v1, v2); rel mod 3 picks E/R/P, P ignores v2. Any
   int triple decodes to a well-formed atom, so shrunk values stay valid. *)
let decode_atom var (rel, a, b) =
  match rel mod 3 with
  | 0 -> Atom.make e [ var a; var b ]
  | 1 -> Atom.make r [ var a; var b ]
  | _ -> Atom.make p [ var a ]

let decode_rule i (body, head) =
  Tgd.make
    ~name:(Printf.sprintf "g%d" i)
    ~body:(List.map (decode_atom body_var) body)
    ~head:[ decode_atom head_var head ]
    ()

let decode_theory rules =
  Theory.make ~name:"gen" (List.mapi decode_rule rules)

let decode_instance (e_edges, r_edges, p_nodes) =
  Fact_set.of_list
    (List.map (fun (i, j) -> Atom.make e [ const i; const j ]) e_edges
    @ List.map (fun (i, j) -> Atom.make r [ const i; const j ]) r_edges
    @ List.map (fun i -> Atom.make p [ const i ]) p_nodes)

let decode_query atoms =
  (* Boolean query over a 3-variable pool (shared variables make joins). *)
  Cq.make ~free:[]
    (List.map (decode_atom (fun i -> body_var (i mod 3))) atoms)

let atom_arb = QCheck.(triple (int_bound 2) (int_bound 5) (int_bound 5))

(* A CQ body has at least one atom, so a body arbitrary must never shrink
   to []: [Cq.make] would raise inside the shrinker and hide the real
   counterexample. *)
let nonempty (arb : 'a list QCheck.arbitrary) =
  match arb.QCheck.shrink with
  | None -> arb
  | Some shrink ->
      QCheck.set_shrink
        (fun l yield -> shrink l (fun l' -> if l' <> [] then yield l'))
        arb

let theory_arb =
  QCheck.(
    list_of_size Gen.(1 -- 4)
      (pair (list_of_size Gen.(1 -- 2) atom_arb) atom_arb))

let instance_arb =
  QCheck.(
    triple
      (list_of_size Gen.(0 -- 6) (pair (int_bound 4) (int_bound 4)))
      (list_of_size Gen.(0 -- 3) (pair (int_bound 4) (int_bound 4)))
      (list_of_size Gen.(0 -- 3) (int_bound 4)))

let query_arb = nonempty QCheck.(list_of_size Gen.(1 -- 2) atom_arb)

(* ------------------------------------------------------------------ *)
(* The naive homomorphism enumerator                                   *)
(* ------------------------------------------------------------------ *)

(* Every homomorphism from [pattern] into the atom list [target] that
   extends [init]: variables are flexible, every other term must match
   literally (terms are matched atomically). Pattern atoms are bound one
   at a time by scanning the whole target, preferring an atom that
   shares a bound variable (so connected patterns never enumerate cross
   products). A mapping fixes the image of every pattern atom, so each
   one is reached exactly once. [injective] keeps the mappings whose
   images are pairwise distinct, [init] included. *)
let naive_iter_homs ?(init = Term.Map.empty) ?(injective = false) pattern
    target f =
  let bind m x y =
    if not (Term.is_var x) then if Term.equal x y then Some m else None
    else
      match Term.Map.find_opt x m with
      | Some y' -> if Term.equal y y' then Some m else None
      | None ->
          if injective && Term.Map.exists (fun _ y' -> Term.equal y y') m
          then None
          else Some (Term.Map.add x y m)
  in
  let rec extend m xs ys =
    match (xs, ys) with
    | [], [] -> Some m
    | x :: xs, y :: ys -> Option.bind (bind m x y) (fun m -> extend m xs ys)
    | _ -> None
  in
  let bound m a = List.exists (fun t -> Term.Map.mem t m) (Atom.args a) in
  let rec go m = function
    | [] -> f m
    | pending ->
        let a =
          match List.find_opt (bound m) pending with
          | Some a -> a
          | None -> List.hd pending
        in
        let rest = List.filter (fun b -> b != a) pending in
        List.iter
          (fun b ->
            if Symbol.equal (Atom.rel a) (Atom.rel b) then
              match extend m (Atom.args a) (Atom.args b) with
              | Some m' -> go m' rest
              | None -> ())
          target
  in
  let images = Term.Map.fold (fun _ y acc -> y :: acc) init [] in
  if
    (not injective)
    || List.length images = List.length (List.sort_uniq Term.compare images)
  then go init pattern

let naive_homs ?init ?injective pattern target =
  let acc = ref [] in
  naive_iter_homs ?init ?injective pattern target (fun m -> acc := m :: !acc);
  List.rev !acc

let naive_hom_exists ?init pattern target =
  let exception Found in
  try
    naive_iter_homs ?init pattern target (fun _ -> raise Found);
    false
  with Found -> true

let tuple_compare = List.compare Term.compare

(* The answers of [q] over [d]: every homomorphism projected onto the
   answer variables, sorted and deduplicated as [Cq.answers] does. *)
let naive_answers q d =
  List.sort_uniq tuple_compare
    (List.map
       (fun m -> List.map (fun v -> Term.Map.find v m) (Cq.free q))
       (naive_homs (Cq.atoms q) (Fact_set.atoms d)))

let naive_boolean_holds q d = naive_hom_exists (Cq.atoms q) (Fact_set.atoms d)

(* The answer variables of [pattern] mapped positionally onto those of
   [target]; [None] when the lists differ in length. *)
let free_init ~pattern ~target =
  if List.length (Cq.free pattern) <> List.length (Cq.free target) then None
  else
    Some
      (List.fold_left2
         (fun m v w -> Term.Map.add v w m)
         Term.Map.empty (Cq.free pattern) (Cq.free target))

(* [Containment.implies target pattern]: a homomorphism pattern -> target
   fixing the answer variables positionally. *)
let naive_implies target pattern =
  match free_init ~pattern ~target with
  | None -> false
  | Some init -> naive_hom_exists ~init (Cq.atoms pattern) (Cq.atoms target)

(* [Containment.isomorphic q1 q2]: an injective mapping of variables to
   variables, answer variables positionally, that carries the body of
   [q1] onto exactly the body of [q2]. Constants are kept: a variable
   never maps to one. *)
let naive_isomorphic q1 q2 =
  Cq.size q1 = Cq.size q2
  &&
  match free_init ~pattern:q1 ~target:q2 with
  | None -> false
  | Some init ->
      let body2 = Atom.Set.of_list (Cq.atoms q2) in
      let image m =
        Atom.Set.of_list
          (List.map
             (Atom.map_args (fun t ->
                  Option.value ~default:t (Term.Map.find_opt t m)))
             (Cq.atoms q1))
      in
      List.exists
        (fun m ->
          Term.Map.for_all (fun _ y -> Term.is_var y) m
          && Atom.Set.equal (image m) body2)
        (naive_homs ~init ~injective:true (Cq.atoms q1) (Cq.atoms q2))

(* ------------------------------------------------------------------ *)
(* The naive reference chase: a direct reading of Definition 6         *)
(* ------------------------------------------------------------------ *)

(* The triggers of [rule] over [current]: the naive body homomorphisms,
   each extended by every binding of the rule's remaining [dom(x)]
   variables to an active-domain element. *)
let naive_triggers rule current f =
  let atoms = Fact_set.atoms current in
  let dom = Term.Set.elements (Fact_set.domain current) in
  let rec bind_dom m = function
    | [] -> f m
    | v :: rest when Term.Map.mem v m -> bind_dom m rest
    | v :: rest -> List.iter (fun u -> bind_dom (Term.Map.add v u m) rest) dom
  in
  naive_iter_homs (Tgd.body rule) atoms (fun m -> bind_dom m (Tgd.dom_vars rule))

(* Every stage recomputes every trigger over the whole structure — no
   deltas, no indexes to get wrong. Returns the stages (element i is
   Ch_i) and whether a fixpoint was reached within [max_stages]. *)
let naive_chase ~max_stages theory d =
  let rec go current n acc =
    if n = 0 then (List.rev acc, false)
    else begin
      let additions = ref [] in
      List.iter
        (fun rule ->
          naive_triggers rule current (fun sigma ->
              List.iter
                (fun a ->
                  if not (Fact_set.mem a current) then
                    additions := a :: !additions)
                (Tgd.apply rule sigma)))
        (Theory.rules theory);
      if !additions = [] then (List.rev acc, true)
      else
        let next = Fact_set.union current (Fact_set.of_list !additions) in
        go next (n - 1) (next :: acc)
    end
  in
  let stages, saturated = go d max_stages [ d ] in
  (stages, saturated)

let max_depth = 3
let max_atoms = 30_000

let prop_engine_matches_naive_reference =
  QCheck.Test.make ~count
    ~name:"semi-naive engine stages = naive reference chase stages"
    QCheck.(pair theory_arb instance_arb)
    (fun (trules, inst) ->
      let theory = decode_theory trules in
      let d = decode_instance inst in
      let run = Chase.Engine.run ~max_depth ~max_atoms theory d in
      QCheck.assume (Chase.Engine.interrupted run <> Some Guard.Fuel);
      let stages, naive_saturated =
        naive_chase ~max_stages:max_depth theory d
      in
      List.length stages = Chase.Engine.depth run + 1
      && Chase.Engine.saturated run = naive_saturated
      && List.for_all2 Fact_set.equal stages
           (List.init (Chase.Engine.depth run + 1) (Chase.Engine.stage run)))

(* ------------------------------------------------------------------ *)
(* Parallel vs sequential: the determinism contracts                   *)
(* ------------------------------------------------------------------ *)

let same_derivations run_a run_b atom =
  let names ders = List.map (fun (rule, _) -> Tgd.name rule) ders in
  names (Chase.Engine.derivations run_a atom)
  = names (Chase.Engine.derivations run_b atom)

(* Per-stage records agree in everything but their wall times. *)
let same_stage_stats run_a run_b =
  let key (r : Saturation.Stats.round) =
    (r.Saturation.Stats.index, r.Saturation.Stats.tally)
  in
  Array.map key (Chase.Engine.stage_stats run_a)
  = Array.map key (Chase.Engine.stage_stats run_b)

let prop_parallel_chase_deterministic =
  QCheck.Test.make ~count
    ~name:"chase at -j1/-j2/-j4: identical stages, flags, provenance"
    QCheck.(pair theory_arb instance_arb)
    (fun (trules, inst) ->
      let theory = decode_theory trules in
      let d = decode_instance inst in
      let seq = Chase.Engine.run ~max_depth ~max_atoms theory d in
      List.for_all
        (fun pool ->
          let par = Chase.Engine.run ~pool ~max_depth ~max_atoms theory d in
          Chase.Engine.depth par = Chase.Engine.depth seq
          && Chase.Engine.saturated par = Chase.Engine.saturated seq
          && (Chase.Engine.interrupted par = Some Guard.Fuel)
             = (Chase.Engine.interrupted seq = Some Guard.Fuel)
          && List.for_all
               (fun i ->
                 Fact_set.equal
                   (Chase.Engine.stage seq i)
                   (Chase.Engine.stage par i))
               (List.init (Chase.Engine.depth seq + 1) Fun.id)
          && List.for_all (same_derivations seq par)
               (Fact_set.atoms (Chase.Engine.result seq))
          && same_stage_stats seq par)
        [ pool2; pool4 ])

let prop_parallel_oblivious_deterministic =
  QCheck.Test.make ~count
    ~name:"oblivious chase with a pool = without"
    QCheck.(pair theory_arb instance_arb)
    (fun (trules, inst) ->
      let theory = decode_theory trules in
      let d = decode_instance inst in
      let seq =
        Chase.Variants.run_oblivious ~max_depth ~max_atoms theory d
      in
      let par =
        Chase.Variants.run_oblivious ~pool:pool3 ~max_depth ~max_atoms theory
          d
      in
      seq.Chase.Variants.steps = par.Chase.Variants.steps
      && seq.Chase.Variants.saturated = par.Chase.Variants.saturated
      && Fact_set.equal seq.Chase.Variants.facts par.Chase.Variants.facts)

let rewrite_budget =
  {
    Rewriting.Rewrite.max_disjuncts = 40;
    max_atoms_per_disjunct = 12;
    max_steps = 150;
  }

(* ------------------------------------------------------------------ *)
(* The register machine and the chase against the naive references     *)
(* ------------------------------------------------------------------ *)

let prop_compiled_hom_matches_naive =
  QCheck.Test.make ~count
    ~name:"Cq.boolean_holds: compiled join = brute-force enumerator"
    QCheck.(pair query_arb instance_arb)
    (fun (qatoms, inst) ->
      let q = decode_query qatoms in
      let d = decode_instance inst in
      Bool.equal (Cq.boolean_holds q d) (naive_boolean_holds q d))

(* Zoo-seeded: every closed zoo theory chased on random instances drawn
   from its own signature, against the naive chase, sequential and -j4. *)
let zoo_theories =
  Theories.Zoo.
    [
      t_a; t_p; t_loopcut; t_sticky; t_nonbdd; t_c; t_d; t_d_noloop;
      t_spouse; t_ex66;
    ]

let theory_signature theory =
  List.sort_uniq Symbol.compare
    (List.concat_map
       (fun r -> List.map Atom.rel (Tgd.body r @ Tgd.head r))
       (Theory.rules theory))

let decode_zoo_instance theory triples =
  let sig_ = Array.of_list (theory_signature theory) in
  Fact_set.of_list
    (List.map
       (fun (s, a, b) ->
         let rel = sig_.(s mod Array.length sig_) in
         let args =
           List.init (Symbol.arity rel) (fun i ->
               const ((if i = 0 then a else b) mod 5))
         in
         Atom.make rel args)
       triples)

let prop_zoo_chase_matches_naive =
  QCheck.Test.make ~count
    ~name:"zoo theories: chase = naive reference chase (j1, j4)"
    QCheck.(
      pair (int_bound 1000)
        (list_of_size Gen.(1 -- 6)
           (triple (int_bound 20) (int_bound 4) (int_bound 4))))
    (fun (pick, triples) ->
      let theory = List.nth zoo_theories (pick mod List.length zoo_theories) in
      let d = decode_zoo_instance theory triples in
      let stages, saturated = naive_chase ~max_stages:max_depth theory d in
      List.for_all
        (fun pool ->
          let run = Chase.Engine.run ?pool ~max_depth ~max_atoms theory d in
          QCheck.assume (Chase.Engine.interrupted run <> Some Guard.Fuel);
          List.length stages = Chase.Engine.depth run + 1
          && Chase.Engine.saturated run = saturated
          && List.for_all2 Fact_set.equal stages
               (List.init (Chase.Engine.depth run + 1) (Chase.Engine.stage run)))
        [ None; Some pool4 ])

(* ------------------------------------------------------------------ *)
(* The naive reference rewriting: a direct reading of Theorem 1        *)
(* ------------------------------------------------------------------ *)

(* One queue pop per step, [Ucq.add_minimal] as the store — no
   saturation kernel, no canon-id dedup, no subsumption index. The
   budget is the kernel's, applied as the sequential kernel applies it:
   a popped disjunct that is no longer in the store is skipped without
   costing a step, the queue must drain within [max_steps] expansions,
   every generated rewriting, cored before it is pushed as the kernel
   cores it before its size check, must stay within
   [max_atoms_per_disjunct] atoms, and the store within [max_disjuncts].
   Under these rules the reference expands the same disjuncts in the
   same order as the kernel, so it returns [None] (a
   cap tripped) exactly when that run cannot complete — and the caps
   keep it from growing ever larger disjuncts whose containment checks
   stall. *)
let naive_rewrite ~(budget : Rewriting.Rewrite.budget) theory q =
  let compiled, aux = Rewriting.Single_head.compile theory in
  let queue = Queue.create () in
  let store = ref Ucq.empty in
  let exception Over_budget in
  let push q' =
    if Cq.size q' > budget.max_atoms_per_disjunct then raise Over_budget;
    let u, verdict = Ucq.add_minimal !store q' in
    store := u;
    if verdict = `Added then begin
      if Ucq.cardinal u > budget.max_disjuncts then raise Over_budget;
      Queue.add q' queue
    end
  in
  let steps = ref 0 in
  match
    push (Containment.core_of_query q);
    while not (Queue.is_empty queue) do
      if !steps >= budget.max_steps then raise Over_budget;
      let cur = Queue.pop queue in
      if List.memq cur (Ucq.disjuncts !store) then begin
        incr steps;
        List.iter
          (fun q' -> push (Containment.core_of_query q'))
          (Rewriting.Piece_unifier.one_step_theory cur compiled)
      end
    done
  with
  | () ->
      Some
        (Ucq.of_list
           (List.filter
              (fun d -> not (Rewriting.Single_head.mentions_aux aux d))
              (Ucq.disjuncts !store)))
  | exception Over_budget -> None

let prop_kernel_rewriting_matches_naive_reference =
  (* The kernel-based saturation must land on a UCQ equivalent to the
     naive queue/add_minimal reference whenever it completes, and the
     reference may run out of budget only where the kernel does too. The
     kernel runs first: when it does not complete there is nothing to
     compare. *)
  QCheck.Test.make ~count
    ~name:"kernel rewriting = naive queue/add_minimal reference"
    QCheck.(pair theory_arb query_arb)
    (fun (trules, qatoms) ->
      let theory = decode_theory trules in
      let q = decode_query qatoms in
      let r = Rewriting.Rewrite.rewrite ~budget:rewrite_budget theory q in
      match r.Rewriting.Rewrite.outcome with
      | Rewriting.Rewrite.Complete -> (
          match naive_rewrite ~budget:rewrite_budget theory q with
          | None -> false
          | Some reference ->
              Ucq.equivalent reference r.Rewriting.Rewrite.ucq)
      | _ -> true)

(* ------------------------------------------------------------------ *)
(* The UCQ store and containment against the naive enumerator          *)
(* ------------------------------------------------------------------ *)

(* CQs with 0-2 answer variables over the x0..x3 pool; the random mix
   naturally produces connected single-component bodies, disconnected
   bodies (distinct components through P/E/R atoms over disjoint
   variables), and ground-ish corner cases. [var] names the pool, so a
   second decoding through a permuted pool is an isomorphic copy. *)
let decode_cq_free ?(var = body_var) atoms f0 f1 =
  let vars = Term.Set.of_list (List.concat_map Atom.vars atoms) in
  let free =
    List.filter
      (fun v -> Term.Set.mem v vars)
      (List.concat
         [ (if f0 then [ var 0 ] else []); (if f1 then [ var 1 ] else []) ])
  in
  Cq.make ~free atoms

let decode_cq ?(var = body_var) (atoms_enc, f0, f1) =
  decode_cq_free ~var (List.map (decode_atom var) atoms_enc) f0 f1

let cq_arb =
  QCheck.(triple (nonempty (list_of_size Gen.(1 -- 4) atom_arb)) bool bool)

let test_bodies_shrink_nonempty () =
  (* Walk two levels of the shrink tree of a few sampled bodies. *)
  let rand = Random.State.make [| 42 |] in
  let check : 'a. string -> 'a QCheck.arbitrary -> ('a -> _ list) -> unit =
   fun name arb body ->
    let shrink = Option.get arb.QCheck.shrink in
    let rec walk depth v =
      if depth > 0 then
        shrink v (fun v' ->
            if body v' = [] then
              Alcotest.failf "%s shrinks to an empty body" name;
            walk (depth - 1) v')
    in
    for _ = 1 to 20 do
      walk 2 (arb.QCheck.gen rand)
    done
  in
  check "query_arb" query_arb Fun.id;
  check "cq_arb" cq_arb (fun (atoms, _, _) -> atoms)

let prop_ucq_store_minimal =
  (* The index-backed [of_list] and an [add_minimal] chain must keep the
     same disjuncts in the same order, drawn from the input; every input
     query must be covered, and no kept disjunct may imply another — so
     the result is a minimal UCQ equivalent to the input. *)
  QCheck.Test.make ~count
    ~name:"Ucq store: indexed of_list/add_minimal keep a minimal equivalent"
    QCheck.(list_of_size Gen.(0 -- 8) cq_arb)
    (fun encs ->
      let qs = List.map decode_cq encs in
      let batch = Ucq.of_list qs in
      let chain =
        List.fold_left (fun u q -> fst (Ucq.add_minimal u q)) Ucq.empty qs
      in
      let kept = Ucq.disjuncts batch in
      List.equal ( == ) kept (Ucq.disjuncts chain)
      && List.for_all (fun d -> List.memq d qs) kept
      && List.for_all
           (fun q -> List.exists (fun d -> naive_implies q d) kept)
           qs
      && List.for_all
           (fun d1 ->
             List.for_all
               (fun d2 -> d1 == d2 || not (naive_implies d1 d2))
               kept)
           kept)

let prop_implies_matches_naive =
  (* The prescreened, Gaifman-decomposed solver against the naive
     enumerator, in both directions. *)
  QCheck.Test.make ~count
    ~name:"Containment.implies = naive enumerator, both directions"
    QCheck.(pair cq_arb cq_arb)
    (fun (enc1, enc2) ->
      let q1 = decode_cq enc1 and q2 = decode_cq enc2 in
      Bool.equal (Containment.implies q1 q2) (naive_implies q1 q2)
      && Bool.equal (Containment.implies q2 q1) (naive_implies q2 q1)
      && Containment.implies q1 q1)

let prop_isomorphic_matches_naive =
  (* Random pairs are rarely isomorphic, so each case also checks a copy
     of the first query decoded through a permuted variable pool, and a
     renaming of it to fresh variables (whose new term ids reorder the
     body [Cq.make] sorts). Equal canonical ids must agree with the naive
     search on all three pairs. *)
  QCheck.Test.make ~count
    ~name:"Containment.isomorphic = naive bijection search"
    QCheck.(pair cq_arb cq_arb)
    (fun (enc1, enc2) ->
      let q1 = decode_cq enc1 and q2 = decode_cq enc2 in
      let copy =
        decode_cq
          ~var:(fun i ->
            Term.var (Printf.sprintf "y%d" ((((i mod 4) * 3) + 1) mod 4)))
          enc1
      in
      let renamed = fst (Cq.refresh ~prefix:"iso" q1) in
      let ids_agree a b =
        Bool.equal (Cq.canon_id a = Cq.canon_id b) (naive_isomorphic a b)
      in
      Bool.equal (Containment.isomorphic q1 q2) (naive_isomorphic q1 q2)
      && Containment.isomorphic q1 copy
      && naive_isomorphic q1 copy
      && ids_agree q1 q2 && ids_agree q1 copy && ids_agree q1 renamed)

(* ------------------------------------------------------------------ *)
(* Theorem 1: answering via rewriting = answering via the chase        *)
(* ------------------------------------------------------------------ *)

let prop_rewriting_answers_like_chase =
  QCheck.Test.make ~count
    ~name:"boolean query: D |= rew(q) iff Ch(T,D) |= q (Theorem 1)"
    QCheck.(triple theory_arb instance_arb query_arb)
    (fun (trules, inst, qatoms) ->
      let theory = decode_theory trules in
      let d = decode_instance inst in
      let q = decode_query qatoms in
      let rew = Rewriting.Rewrite.rewrite ~budget:rewrite_budget theory q in
      match rew.Rewriting.Rewrite.outcome with
      | Rewriting.Rewrite.Complete ->
          let run = Chase.Engine.run ~max_depth:6 ~max_atoms theory d in
          (* Only a saturated chase decides certain answers exactly. *)
          QCheck.assume (Chase.Engine.saturated run);
          Bool.equal
            (Ucq.boolean_holds rew.Rewriting.Rewrite.ucq d)
            (Cq.boolean_holds q (Chase.Engine.result run))
      | _ -> true)

let prop_zoo_answering_agreement =
  (* Zoo-seeded: T_a over random Human courts, the mother query. The
     full answering pipelines must agree (and the parallel one with them). *)
  QCheck.Test.make ~count
    ~name:"T_a certain answers: chase pipeline = rewriting pipeline"
    QCheck.(list_of_size Gen.(1 -- 6) (int_bound 9))
    (fun people ->
      let d =
        Fact_set.of_list
          (List.map
             (fun i ->
               Atom.make Theories.Zoo.person
                 [ Term.const (Printf.sprintf "p%d" i) ])
             people)
      in
      let x = Term.var "x" and m = Term.var "m" in
      let q =
        Cq.make ~free:[ x ] [ Atom.make Theories.Zoo.mother [ x; m ] ]
      in
      let via_chase, _, _ =
        Portfolio.Strategy.chase_arm ~max_depth:3 Theories.Zoo.t_a d q
      in
      let via_rewriting =
        Portfolio.Strategy.rewriting_arm Theories.Zoo.t_a d q
      in
      let sort = List.sort (List.compare Term.compare) in
      match via_rewriting with
      | a, true, _ -> sort a = sort (via_chase : Term.t list list)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* The portfolio selector vs the engines it routes between             *)
(* ------------------------------------------------------------------ *)

let portfolio_budget = rewrite_budget

let prop_portfolio_agrees_with_chase =
  (* Whatever strategy [Portfolio.plan] picks on a random theory, the
     answers [execute] marks exact must be exactly the chase's certain
     answers whenever the chase saturates — at -j1 and -j4. *)
  QCheck.Test.make ~count
    ~name:"portfolio execute = saturated chase certain answers (j1, j4)"
    QCheck.(triple theory_arb instance_arb query_arb)
    (fun (trules, inst, qatoms) ->
      let theory = decode_theory trules in
      let d = decode_instance inst in
      let q = decode_query qatoms in
      let plan = Portfolio.plan theory in
      let reference, ref_exact, _ =
        Portfolio.Strategy.chase_arm ~max_depth:6 ~max_atoms theory d q
      in
      List.for_all
        (fun pool ->
          let a =
            Portfolio.execute ?pool ~budget:portfolio_budget ~max_depth:6
              ~max_atoms plan theory d q
          in
          if a.Portfolio.Strategy.exact && ref_exact then
            Portfolio.Strategy.equal_answers a.Portfolio.Strategy.tuples
              reference
          else if ref_exact then
            (* Inexact answers are still sound: a subset of the certain
               answers the saturated chase computed. *)
            List.for_all
              (fun tuple -> List.exists (( = ) tuple) reference)
              a.Portfolio.Strategy.tuples
          else true)
        [ None; Some pool4 ])

let prop_portfolio_agrees_on_zoo_instances =
  (* Zoo-seeded: the portfolio routes T_a to rewriting; its answers must
     match the chase pipeline on random Human courts. *)
  QCheck.Test.make ~count
    ~name:"portfolio on T_a = chase pipeline on random instances"
    QCheck.(list_of_size Gen.(1 -- 6) (int_bound 9))
    (fun people ->
      let d =
        Fact_set.of_list
          (List.map
             (fun i ->
               Atom.make Theories.Zoo.human
                 [ Term.const (Printf.sprintf "h%d" i) ])
             people)
      in
      let x = Term.var "x" and m = Term.var "m" in
      let q =
        Cq.make ~free:[ x ] [ Atom.make Theories.Zoo.mother [ x; m ] ]
      in
      let plan = Portfolio.plan Theories.Zoo.t_a in
      let a = Portfolio.execute plan Theories.Zoo.t_a d q in
      let via_chase, _, _ =
        Portfolio.Strategy.chase_arm ~max_depth:3 Theories.Zoo.t_a d q
      in
      a.Portfolio.Strategy.exact
      && a.Portfolio.Strategy.used = Portfolio.Ucq_rewriting
      && Portfolio.Strategy.equal_answers a.Portfolio.Strategy.tuples
           via_chase)

(* ------------------------------------------------------------------ *)
(* Eval: the plan layer against the naive enumerator                   *)
(* ------------------------------------------------------------------ *)

(* Open queries: the second coordinate picks how many of the variables
   actually used become answer variables (0 = boolean). *)
let decode_open_query (atoms, nfree) =
  let atoms = List.map (decode_atom (fun i -> body_var (i mod 3))) atoms in
  let used =
    List.sort_uniq Term.compare
      (List.concat_map
         (fun a -> List.filter Term.is_var (Atom.args a))
         atoms)
  in
  let free =
    List.filteri (fun i _ -> i < nfree mod (List.length used + 1)) used
  in
  Cq.make ~free atoms

let open_query_arb =
  QCheck.(pair (list_of_size Gen.(1 -- 3) atom_arb) (int_bound 3))

(* Deterministic generator-built instances shared across cases: the
   seeds the eval acceptance criteria pin (1, 7, 42). *)
let eval_seed_instances =
  List.map
    (fun seed ->
      Fact_set.union
        (Theories.Instances.erdos_renyi e ~seed ~nodes:6 ~edges:14)
        (Theories.Instances.erdos_renyi r ~seed:(seed + 100) ~nodes:6
           ~edges:7))
    [ 1; 7; 42 ]

let equal_tuple_lists a b = List.compare tuple_compare a b = 0

let prop_eval_answers_match_naive =
  (* The core differential: Eval.answers through a leapfrog plan, the
     naive enumerator, and Cq.answers must produce identical tuple
     lists — on random instances and on the pinned generator seeds. *)
  QCheck.Test.make ~count
    ~name:"Eval.answers: leapfrog = naive enumerator = Cq.answers"
    QCheck.(pair open_query_arb instance_arb)
    (fun (qenc, inst) ->
      let q = decode_open_query qenc in
      List.for_all
        (fun d ->
          let got = Eval.answers q d in
          equal_tuple_lists got (naive_answers q d)
          && equal_tuple_lists got (Cq.answers q d))
        (decode_instance inst :: eval_seed_instances))

let prop_eval_ucq_matches_naive =
  (* Union evaluation with cross-disjunct dedup against the union of the
     naive answer sets. Every disjunct is anchored on E(x0, x1) so the
     free slot is shared and the disjuncts genuinely overlap. *)
  QCheck.Test.make ~count
    ~name:"Eval.ucq_answers: plan union = naive union"
    QCheck.(triple query_arb query_arb instance_arb)
    (fun (a1, a2, inst) ->
      let disjunct atoms =
        Cq.make ~free:[ body_var 0 ]
          (Atom.make e [ body_var 0; body_var 1 ]
          :: List.map (decode_atom (fun i -> body_var (i mod 3))) atoms)
      in
      let u = Ucq.of_disjuncts_unchecked [ disjunct a1; disjunct a2 ] in
      List.for_all
        (fun d ->
          equal_tuple_lists (Eval.ucq_answers u d)
            (List.sort_uniq tuple_compare
               (List.concat_map
                  (fun q -> naive_answers q d)
                  (Ucq.disjuncts u))))
        (decode_instance inst :: eval_seed_instances))

let prop_eval_zoo_answers_agree =
  (* The [frontier answer] pipeline (Strategy -> rewrite -> evaluate)
     against chase-then-query across the theory zoo, sequential and -j4:
     exact claims must match exactly, inexact answers must be sound. *)
  QCheck.Test.make ~count
    ~name:"zoo certain answers: rewrite-then-evaluate = chase-then-query (j1, j4)"
    QCheck.(
      pair (int_bound 1000)
        (list_of_size Gen.(1 -- 5)
           (triple (int_bound 20) (int_bound 4) (int_bound 4))))
    (fun (pick, triples) ->
      let theory = List.nth zoo_theories (pick mod List.length zoo_theories) in
      let d = decode_zoo_instance theory triples in
      let sig_ = theory_signature theory in
      let rel =
        match List.find_opt (fun s -> Symbol.arity s > 0) sig_ with
        | Some s -> s
        | None -> e
      in
      let xq = Term.var "x" in
      let args =
        List.init (Symbol.arity rel) (fun i ->
            if i = 0 then xq else Term.var (Printf.sprintf "y%d" i))
      in
      let q = Cq.make ~free:[ xq ] [ Atom.make rel args ] in
      let reference, ref_exact, _ =
        Portfolio.Strategy.chase_arm ~max_depth:6 ~max_atoms theory d q
      in
      let plan = Portfolio.plan theory in
      List.for_all
        (fun pool ->
          let a =
            Portfolio.execute ?pool ~budget:portfolio_budget ~max_depth:6
              ~max_atoms plan theory d q
          in
          if a.Portfolio.Strategy.exact && ref_exact then
            Portfolio.Strategy.equal_answers a.Portfolio.Strategy.tuples
              reference
          else if ref_exact then
            List.for_all
              (fun tuple -> List.exists (( = ) tuple) reference)
              a.Portfolio.Strategy.tuples
          else true)
        [ None; Some pool4 ])

(* ------------------------------------------------------------------ *)
(* Query cores against the restart-after-removal reference             *)
(* ------------------------------------------------------------------ *)

(* [q] without [atom], when that is still a query (non-empty body, every
   answer variable still occurring). *)
let without q atom =
  match List.filter (fun a -> not (Atom.equal a atom)) (Cq.atoms q) with
  | [] -> None
  | atoms -> (
      match Cq.make ~free:(Cq.free q) atoms with
      | smaller -> Some smaller
      | exception Invalid_argument _ -> None)

(* [atom] is redundant in [q] when [q] maps into [q] without it. *)
let redundant q atom =
  match without q atom with
  | Some smaller -> naive_implies smaller q
  | None -> false

(* The core as [Containment.core_of_query] computed it before its
   one-pass scan: after every removal, start again from the first atom. *)
let restart_core q =
  let rec shrink q =
    match List.find_opt (redundant q) (Cq.atoms q) with
    | Some atom -> shrink (Option.get (without q atom))
    | None -> q
  in
  shrink q

let generator_families =
  Theories.Generators.
    [
      random_linear_binary;
      random_datalog_binary;
      random_guarded;
      random_sticky;
      random_loop_restricted;
    ]

(* A query over the signature of a generated theory (relation picked
   modulo the signature, arguments from the x0..x3 pool, x0/x1 optionally
   free) together with its raw one-step rewritings under that theory:
   the inputs the rewriting cores. *)
let decode_family_cqs seed (family, atoms_enc, f0, f1) =
  let theory =
    (List.nth generator_families (family mod List.length generator_families))
      ~seed ~rels:2 ~rules:4
  in
  let sig_ = Array.of_list (theory_signature theory) in
  let atoms =
    List.map
      (fun (s, a, b) ->
        let rel = sig_.(s mod Array.length sig_) in
        Atom.make rel
          (List.init (Symbol.arity rel) (fun i ->
               body_var (if i = 0 then a else b))))
      atoms_enc
  in
  let q = decode_cq_free atoms f0 f1 in
  let compiled, _ = Rewriting.Single_head.compile theory in
  q :: Rewriting.Piece_unifier.one_step_theory q compiled

let prop_core_matches_restart seed =
  QCheck.Test.make ~count
    ~name:
      (Printf.sprintf
         "core_of_query = restart-after-removal reference, no atom \
          removable (seed %d)"
         seed)
    QCheck.(
      quad (int_bound 4)
        (list_of_size Gen.(1 -- 4)
           (triple (int_bound 7) (int_bound 5) (int_bound 5)))
        bool bool)
    (fun ((_, atoms_enc, _, _) as enc) ->
      (* The list shrinker does not keep the generator's minimum size. *)
      QCheck.assume (atoms_enc <> []);
      List.for_all
        (fun q ->
          let core = Containment.core_of_query q in
          List.equal Atom.equal (Cq.atoms core) (Cq.atoms (restart_core q))
          && not (List.exists (redundant core) (Cq.atoms core)))
        (decode_family_cqs seed enc))

(* One dedup table per UCQ evaluation: 1-4 disjuncts with answer
   variable x0 over a generated theory's signature, on an instance drawn
   for that theory, against the sorted union of [Cq.answers]. Every
   disjunct is anchored on the same binary atom [L(x0, x1)], so their
   answers overlap. The instance also holds [L(a, f(w))] for every
   [L(a, b)]; with [fb] set, the first disjunct is anchored on
   [L(x0, f(w))] instead, a rigid key that matches only the literal
   [f(w)], so a plan keyed on a functional term and plans keyed on
   variables feed one table. *)
let prop_eval_ucq_one_table =
  QCheck.Test.make ~count
    ~name:
      "Eval.ucq_answers = sorted union of Cq.answers, compiled and fallback \
       plans in one table"
    QCheck.(
      quad (int_bound 4) (int_bound 999)
        (list_of_size Gen.(1 -- 4)
           (list_of_size Gen.(0 -- 2)
              (triple (int_bound 7) (int_bound 5) (int_bound 5))))
        bool)
    (fun (family, seed, bodies, fb) ->
      (* The list shrinker does not keep the generator's minimum size. *)
      QCheck.assume (bodies <> []);
      let theory =
        (List.nth generator_families (family mod List.length generator_families))
          ~seed ~rels:2 ~rules:4
      in
      let sig_ = Array.of_list (theory_signature theory) in
      match Array.find_opt (fun s -> Symbol.arity s = 2) sig_ with
      | None -> QCheck.assume_fail ()
      | Some anchor ->
          let fw = Term.app "f" [ Term.var "w" ] in
          let base =
            Theories.Generators.random_instance_for ~seed theory ~nodes:6
              ~facts:24
          in
          let inst =
            Fact_set.union base
              (Fact_set.of_list
                 (List.filter_map
                    (fun a ->
                      if Symbol.equal (Atom.rel a) anchor then
                        Some (Atom.make anchor [ Atom.arg a 0; fw ])
                      else None)
                    (Fact_set.atoms base)))
          in
          let atom (s, a, b) =
            let rel = sig_.(s mod Array.length sig_) in
            Atom.make rel
              (List.init (Symbol.arity rel) (fun i ->
                   body_var (if i = 0 then a else b)))
          in
          let disjunct i enc =
            let second = if fb && i = 0 then fw else body_var 1 in
            Cq.make ~free:[ body_var 0 ]
              (Atom.make anchor [ body_var 0; second ] :: List.map atom enc)
          in
          let ds = List.mapi disjunct bodies in
          equal_tuple_lists
            (Eval.ucq_answers (Ucq.of_disjuncts_unchecked ds) inst)
            (List.sort_uniq tuple_compare
               (List.concat_map (fun d -> Cq.answers d inst) ds)))

(* ------------------------------------------------------------------ *)
(* Containment on mid-sized targets                                    *)
(* ------------------------------------------------------------------ *)

(* A target body of 46-90 atoms (around the size from which a compiled
   join could start to beat the register machine, which decides every
   containment check): a path over random E/R edges or a width-w grid prefix (E along, R
   across), with node variables folded modulo a period of at least 45
   (repeated variables close long cycles without merging atoms), plus an
   optional self-loop. The pattern is a connected walk through the
   target, renamed apart — so it embeds — and then perturbed (a flipped
   relation, a merged pair of variables, an extra edge), which is what
   makes a good share of the verdicts negative. Both sides have one
   answer variable or none. *)
let containment_pair_gen =
  QCheck.Gen.(
    let* n = 46 -- 89 in
    let* width = oneofl [ 0; 3; 4; 6 ] in
    let* period = oneof [ return max_int; 45 -- 120 ] in
    let* loop = bool in
    let* rels = list_repeat n bool in
    let* walk = list_size (1 -- 7) (int_bound 1_000) in
    let* perturb = int_bound 3 in
    let* pick = pair (int_bound 1_000) (int_bound 1_000) in
    let* with_free = bool in
    let node i = Term.var (Printf.sprintf "t%d" (i mod period)) in
    let rel b = if b then e else r in
    let edges =
      List.mapi
        (fun k b ->
          if width = 0 then Atom.make (rel b) [ node k; node (k + 1) ]
          else
            (* grid prefix: cell k/2, rightward edge on even k, downward
               on odd k *)
            let cell = k / 2 in
            if k mod 2 = 0 then Atom.make e [ node cell; node (cell + 1) ]
            else Atom.make r [ node cell; node (cell + width) ])
        rels
      @ if loop then [ Atom.make r [ node 0; node 0 ] ] else []
    in
    let target_atoms = Array.of_list edges in
    let shares a b =
      List.exists (fun t -> List.exists (Term.equal t) (Atom.args b)) (Atom.args a)
    in
    let chosen =
      List.fold_left
        (fun acc step ->
          let linked =
            List.filter
              (fun b -> List.exists (shares b) acc)
              (Array.to_list target_atoms)
          in
          List.nth linked (step mod List.length linked) :: acc)
        [ target_atoms.(List.hd walk mod Array.length target_atoms) ]
        (List.tl walk)
    in
    let rename =
      let tbl = Hashtbl.create 16 in
      fun (t : Term.t) ->
        match Hashtbl.find_opt tbl t.Term.id with
        | Some u -> u
        | None ->
            let u = Term.var (Printf.sprintf "p%d" (Hashtbl.length tbl)) in
            Hashtbl.add tbl t.Term.id u;
            u
    in
    let start = Atom.arg (List.hd (List.rev chosen)) 0 in
    let pattern = List.map (Atom.map_args rename) (List.rev chosen) in
    let pvars = List.sort_uniq Term.compare (List.concat_map Atom.vars pattern) in
    let pv i = List.nth pvars (i mod List.length pvars) in
    let x = pv (fst pick) and y = pv (snd pick) in
    let merge t = if perturb = 2 && Term.equal t y then x else t in
    let pattern =
      match perturb with
      | 1 ->
          (* flip the relation of one atom *)
          List.mapi
            (fun i a ->
              if i = fst pick mod List.length pattern then
                Atom.make
                  (if Symbol.equal (Atom.rel a) e then r else e)
                  (Atom.args a)
              else a)
            pattern
      | 2 -> List.map (Atom.map_args merge) pattern
      | 3 -> Atom.make e [ x; y ] :: pattern
      | _ -> pattern
    in
    let free t = if with_free then [ t ] else [] in
    return
      ( Cq.make ~free:(free start) edges,
        Cq.make ~free:(free (merge (rename start))) pattern ))

let prop_containment_across_cutoff seed =
  QCheck.Test.make ~count
    ~name:
      (Printf.sprintf
         "Containment.implies on 40-90-atom targets = register machine = \
          naive (seed %d)"
         seed)
    (QCheck.make
       ~print:(fun (t, p) -> Fmt.str "target %a@.pattern %a" Cq.pp t Cq.pp p)
       containment_pair_gen)
    (fun (target, pattern) ->
      (* The register machine alone: one search over the whole body,
         without [Containment]'s prescreens and component split. *)
      let register_machine =
        match free_init ~pattern ~target with
        | None -> false
        | Some init ->
            Homomorphism.exists
              (Homomorphism.make ~init ~flexible:(Cq.var_set pattern)
                 ~pattern:(Cq.atoms pattern) ~target:(Cq.as_fact_set target)
                 ())
      in
      let verdict = Containment.implies target pattern in
      verdict = register_machine && verdict = naive_implies target pattern)

(* ------------------------------------------------------------------ *)
(* Containment through the per-query program cache                    *)
(* ------------------------------------------------------------------ *)

(* [Cq.hom_programs] compiles a query's containment search once and
   keeps it; these properties check the reuse path. Terms: three
   variables per group (group 0: x0..x2, group 1: x3, x4 — the third
   pick repeats one), two constants and two functional terms. Atoms of
   the two groups share no variable, so a body with atoms in both has
   several components; a repeated pick makes a repeated variable. The
   answer variables, x0 and x3 when picked and present, are rigid. *)
let reuse_term group i =
  match i mod 7 with
  | j when j < 3 ->
      Term.var
        (Printf.sprintf "x%d" (if group = 0 then j else 3 + (j mod 2)))
  | 3 -> const 0
  | 4 -> const 1
  | 5 -> Term.app "f" [ const 0 ]
  | _ -> Term.app "f" [ Term.var (if group = 0 then "x1" else "x4") ]

let reuse_atom_arb = QCheck.(triple (int_bound 2) (int_bound 6) (int_bound 6))

(* A derived query: [mode] 0 is independent of the pivot; 1 is the
   pivot's body plus the extra atoms (the pivot maps into it by the
   identity); 2 is that with x2 merged into x1 (the pivot still maps
   in). *)
let reuse_cq_arb =
  QCheck.(
    quad (int_bound 2)
      (nonempty (list_of_size Gen.(1 -- 3) reuse_atom_arb))
      (list_of_size Gen.(0 -- 2) reuse_atom_arb)
      (pair bool bool))

let decode_reuse_cq ?pivot (mode, g0, g1, (f0, f1)) =
  let extra =
    List.map (decode_atom (reuse_term 0)) g0
    @ List.map (decode_atom (reuse_term 1)) g1
  in
  let merge = Term.subst_of_bindings [ (Term.var "x2", Term.var "x1") ] in
  let atoms =
    match (pivot, mode mod 3) with
    | None, _ | Some _, 0 -> extra
    | Some pq, 1 -> Cq.atoms pq @ extra
    | Some pq, _ -> List.map (Atom.subst merge) (Cq.atoms pq) @ extra
  in
  let args = Term.Set.of_list (List.concat_map Atom.args atoms) in
  let free =
    List.filter
      (fun v -> Term.Set.mem v args)
      ((if f0 then [ Term.var "x0" ] else [])
      @ if f1 then [ Term.var "x3" ] else [])
  in
  Cq.make ~free atoms

(* Fresh queries (empty caches): the pivot, then the queries derived
   from it. *)
let decode_reuse (pivot_enc, encs) =
  let pivot = decode_reuse_cq pivot_enc in
  (pivot, List.map (decode_reuse_cq ~pivot) encs)

(* Every (target, pattern) pair of one pivot and its derived queries:
   the pivot as the pattern of each, then as the target of each. *)
let reuse_pairs (pivot, others) =
  List.map (fun q -> (q, pivot)) others @ List.map (fun q -> (pivot, q)) others

let reuse_arb =
  QCheck.(
    triple reuse_cq_arb
      (list_of_size Gen.(2 -- 6) reuse_cq_arb)
      (int_bound 1_000_000))

let shuffle seed l =
  let st = Random.State.make [| seed |] in
  List.map snd
    (List.sort compare (List.map (fun x -> (Random.State.bits st, x)) l))

let prop_containment_cache_reuse =
  QCheck.Test.make ~count
    ~name:
      "Containment.implies with cached programs = naive: one pattern vs k \
       targets, k patterns vs one target, first use in random order"
    reuse_arb
    (fun (pivot_enc, encs, seed) ->
      let pairs = reuse_pairs (decode_reuse (pivot_enc, encs)) in
      List.for_all
        (fun (target, pattern) ->
          Bool.equal
            (Containment.implies target pattern)
            (naive_implies target pattern))
        (shuffle seed pairs))

let prop_containment_cache_two_domains =
  QCheck.Test.make ~count
    ~name:
      "Containment.implies from two domains over shared queries = \
       sequential verdicts"
    reuse_arb
    (fun (pivot_enc, encs, _) ->
      let verdicts pairs =
        List.map (fun (target, pattern) -> Containment.implies target pattern) pairs
      in
      let sequential = verdicts (reuse_pairs (decode_reuse (pivot_enc, encs))) in
      (* A second decoding, so both domains race on the first use of
         every cache. They start together and walk the same pairs in the
         same order [passes] times, so their searches over the same
         programs overlap. *)
      let shared = reuse_pairs (decode_reuse (pivot_enc, encs)) in
      let passes = 50 in
      let ready = Atomic.make 0 in
      let walk () =
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < 2 do
              Domain.cpu_relax ()
            done;
            List.init passes (fun _ -> verdicts shared))
      in
      let d1 = walk () and d2 = walk () in
      let agree = List.for_all (fun v -> v = sequential) in
      let v1 = Domain.join d1 and v2 = Domain.join d2 in
      agree v1 && agree v2)

(* ------------------------------------------------------------------ *)
(* The pool primitives themselves                                      *)
(* ------------------------------------------------------------------ *)

let prop_pool_primitives =
  QCheck.Test.make ~count ~name:"pool map_array = Array.map"
    QCheck.(array int)
    (fun a ->
      let f x = (x * 31) mod 1009 in
      List.for_all
        (fun pool -> Parallel.Pool.map_array pool f a = Array.map f a)
        [ pool1; pool2; pool4 ])

(* ------------------------------------------------------------------ *)
(* Fault injection: every Exhausted salvage path, under random seeds   *)
(* ------------------------------------------------------------------ *)

(* [Faults.forced_trip] is consulted by {e every} [Guard.check] — including
   the unlimited guards that guarded entry points create internally — so a
   fault-free reference run must execute under [Faults.none]. Each faulty
   run installs its schedule and uninstalls it again even on exceptions.
   The CI fault matrix sets FRONTIER_FAULTS to rotate the whole suite
   through different schedule families; it is mixed into every seed. *)
let fault_seed_base =
  match Sys.getenv_opt "FRONTIER_FAULTS" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 0)
  | None -> 0

let with_faults seed f =
  Guard.Faults.install
    (Guard.Faults.of_seed (abs (seed + (65_537 * fault_seed_base))));
  Fun.protect ~finally:(fun () -> Guard.Faults.install Guard.Faults.none) f

let prop_faulty_chase_is_prefix =
  (* Whatever the schedule injects — simulated deadline/memory trips at
     stage boundaries or inside a sweep's tasks — the chase either
     completes with exactly the fault-free stages or stops early with a
     stage-exact prefix of them (aborted sweeps are discarded whole). *)
  QCheck.Test.make ~count
    ~name:"fault-injected chase = stage-exact prefix of fault-free chase"
    QCheck.(triple small_nat theory_arb instance_arb)
    (fun (seed, trules, inst) ->
      let theory = decode_theory trules and d = decode_instance inst in
      let reference = Chase.Engine.run ~max_depth ~max_atoms theory d in
      List.for_all
        (fun pool ->
          let run =
            with_faults (1 + seed) (fun () ->
                let guard = Guard.create () in
                Chase.Engine.run ~pool ~guard ~max_depth ~max_atoms theory d)
          in
          let dr = Chase.Engine.depth run in
          dr <= Chase.Engine.depth reference
          && List.for_all
               (fun i ->
                 Fact_set.equal (Chase.Engine.stage run i)
                   (Chase.Engine.stage reference i))
               (List.init (dr + 1) Fun.id)
          &&
          match Chase.Engine.interrupted run with
          | Some _ -> true
          | None ->
              (* No trip fired: the run must be indistinguishable from the
                 fault-free one. *)
              dr = Chase.Engine.depth reference
              && Bool.equal (Chase.Engine.saturated run)
                   (Chase.Engine.saturated reference))
        [ pool1; pool2; pool4 ])

let prop_faulty_rewriting_is_sound =
  (* A rewriting interrupted by a guard trip keeps its store: every
     collected disjunct came from sound piece-rewriting steps, so each
     must be subsumed by some disjunct of the fault-free fixpoint. *)
  QCheck.Test.make ~count
    ~name:"fault-injected rewriting is entailed by the fault-free fixpoint"
    QCheck.(triple small_nat theory_arb query_arb)
    (fun (seed, trules, qatoms) ->
      let theory = decode_theory trules and q = decode_query qatoms in
      let full = Rewriting.Rewrite.rewrite ~budget:rewrite_budget theory q in
      match full.Rewriting.Rewrite.outcome with
      | Rewriting.Rewrite.Complete ->
          let partial =
            with_faults (1 + seed) (fun () ->
                let guard = Guard.create () in
                Rewriting.Rewrite.rewrite ~guard ~budget:rewrite_budget
                  theory q)
          in
          List.for_all
            (fun dq ->
              List.exists
                (fun d' -> Containment.implies dq d')
                (Ucq.disjuncts full.Rewriting.Rewrite.ucq))
            (Ucq.disjuncts partial.Rewriting.Rewrite.ucq)
      | _ -> true)

let prop_pool_reraises_lowest_failure =
  (* Every task runs once, failing or not, and the exception that
     surfaces is the lowest failing index's own — the one [Array.map]
     raises — at every pool size. *)
  QCheck.Test.make ~count
    ~name:
      "map_array re-raises the lowest failing index's exception, the same \
       one at pool sizes 1/2/4"
    QCheck.(list (pair small_int bool))
    (fun l ->
      let arr = Array.of_list l in
      let f (x, fail) = if fail then failwith (string_of_int x) else x * 2 in
      let expected =
        match Array.map f arr with
        | res -> Ok res
        | exception Failure msg -> Error msg
      in
      List.for_all
        (fun pool ->
          let runs = Atomic.make 0 in
          let got =
            match
              Parallel.Pool.map_array pool
                (fun t ->
                  Atomic.incr runs;
                  f t)
                arr
            with
            | res -> Ok res
            | exception Failure msg -> Error msg
          in
          got = expected && Atomic.get runs = Array.length arr)
        [ pool1; pool2; pool4 ])

let prop_faulty_answering_never_lies =
  (* End to end: certain answers computed under fault injection are a
     subset of the fault-free certain answers (a truncated chase can miss
     answers, never invent them). *)
  QCheck.Test.make ~count
    ~name:"fault-injected certain answers are a subset of fault-free ones"
    QCheck.(triple small_nat theory_arb instance_arb)
    (fun (seed, trules, inst) ->
      let theory = decode_theory trules and d = decode_instance inst in
      let x = Term.var "x" and y = Term.var "y" in
      let q = Cq.make ~free:[ x ] [ Atom.make e [ x; y ] ] in
      let full, _, _ =
        Portfolio.Strategy.chase_arm ~max_depth ~max_atoms theory d q
      in
      let partial, _, _ =
        with_faults (1 + seed) (fun () ->
            let guard = Guard.create () in
            Portfolio.Strategy.chase_arm ~guard ~max_depth ~max_atoms theory d
              q)
      in
      List.for_all
        (fun tuple -> List.exists (( = ) tuple) full)
        (partial : Term.t list list))

let prop_faulty_portfolio_never_lies =
  (* Under any injected fault schedule the portfolio still only returns
     entailed tuples: everything it reports must appear in the
     fault-free saturated chase's certain answers, and an answer it
     marks exact under faults must BE the exact answer. *)
  QCheck.Test.make ~count
    ~name:"fault-injected portfolio answers are sound, exact claims exact"
    QCheck.(triple small_nat theory_arb instance_arb)
    (fun (seed, trules, inst) ->
      let theory = decode_theory trules and d = decode_instance inst in
      let x = Term.var "x" and y = Term.var "y" in
      let q = Cq.make ~free:[ x ] [ Atom.make e [ x; y ] ] in
      let plan = Portfolio.plan theory in
      let reference, ref_exact, _ =
        Portfolio.Strategy.chase_arm ~max_depth:6 ~max_atoms theory d q
      in
      QCheck.assume ref_exact;
      List.for_all
        (fun pool ->
          let a =
            with_faults (1 + seed) (fun () ->
                let guard = Guard.create () in
                Portfolio.execute ?pool ~guard ~budget:rewrite_budget
                  ~max_depth:6 ~max_atoms plan theory d q)
          in
          List.for_all
            (fun tuple -> List.exists (( = ) tuple) reference)
            a.Portfolio.Strategy.tuples
          && (not a.Portfolio.Strategy.exact
             || Portfolio.Strategy.equal_answers a.Portfolio.Strategy.tuples
                  reference))
        [ None; Some pool4 ])

(* ------------------------------------------------------------------ *)
(* Term and atom primitives, and the marked-query analysis             *)
(* ------------------------------------------------------------------ *)

(* Reference versions of the term and atom primitives: plain structural
   recursion and list scans, no tables, no fast paths. *)
let ref_term_vars t =
  let rec go acc (t : Term.t) =
    match t.Term.view with
    | Term.Var _ -> if List.exists (Term.equal t) acc then acc else t :: acc
    | Term.Const _ -> acc
    | Term.App { args; _ } -> List.fold_left go acc args
  in
  List.rev (go [] t)

let rec ref_subst m (t : Term.t) =
  match Term.Int_map.find_opt t.Term.id m with
  | Some image -> image
  | None -> (
      match t.Term.view with
      | Term.Const _ | Term.Var _ -> t
      | Term.App { fn; args } -> Term.app fn (List.map (ref_subst m) args))

let ref_dedup l =
  List.rev
    (List.fold_left
       (fun acc t -> if List.exists (Term.equal t) acc then acc else t :: acc)
       [] l)

let ref_atom_terms a = ref_dedup (Atom.args a)
let ref_atom_vars a = ref_dedup (List.concat_map ref_term_vars (Atom.args a))

(* Terms up to depth 3 over four variables and three constants, with
   nested applications whose arguments repeat a subterm. *)
let term_gen =
  QCheck.Gen.(
    sized_size (0 -- 3)
    @@ fix (fun self d ->
           let leaf =
             oneof
               [
                 map (fun i -> Term.var (Printf.sprintf "t%d" i)) (0 -- 3);
                 map (fun i -> Term.const (Printf.sprintf "k%d" i)) (0 -- 2);
               ]
           in
           if d = 0 then leaf
           else
             frequency
               [
                 (1, leaf);
                 ( 3,
                   self (d - 1) >>= fun t ->
                   list_size (1 -- 3) (oneof [ return t; self (d - 1) ])
                   >>= fun args ->
                   map
                     (fun f -> Term.app (Printf.sprintf "f%d" f) args)
                     (0 -- 1) );
               ]))

let primitives_arb =
  let open QCheck in
  let print (ts, bindings) =
    Fmt.str "terms [%a], subst [%a]"
      (Fmt.list ~sep:(Fmt.any "; ") Term.pp)
      ts
      (Fmt.list ~sep:(Fmt.any "; ") (fun ppf (i, t) ->
           Fmt.pf ppf "t%d -> %a" i Term.pp t))
      bindings
  in
  make ~print
    Gen.(
      pair
        (list_size (1 -- 4) term_gen)
        (list_size (0 -- 3) (pair (0 -- 3) term_gen)))

let prop_primitives_match_reference seed =
  QCheck.Test.make ~count
    ~name:
      (Printf.sprintf
         "Term.vars/subst, Atom.vars/terms = reference versions (seed %d)" seed)
    primitives_arb
    (fun (ts, bindings) ->
      let m =
        Term.subst_of_bindings
          (List.map (fun (i, t) -> (Term.var (Printf.sprintf "t%d" i), t)) bindings)
      in
      let atom =
        Atom.make (Symbol.make (Printf.sprintf "A%d" (List.length ts))
                     ~arity:(List.length ts)) ts
      in
      List.for_all
        (fun t ->
          List.equal Term.equal (Term.vars t) (ref_term_vars t)
          && Term.equal (Term.subst m t) (ref_subst m t))
        ts
      && List.equal Term.equal (Atom.terms atom) (ref_atom_terms atom)
      && List.equal Term.equal (Atom.vars atom) (ref_atom_vars atom)
      && List.equal Term.equal
           (Atom.args (Atom.subst m atom))
           (List.map (ref_subst m) ts))

(* A naive oracle for [Marked_query.is_properly_marked]: the per-body
   analysis on hash tables keyed by term (Tarjan over term-keyed tables,
   same-level in-edge groups keyed by (level, target), in-level lists),
   recomputed for every marking. *)
let oracle_cycle_vars atoms =
  let succs = Hashtbl.create 16 in
  let verts = Term.dedup (List.concat_map Atom.vars atoms) in
  List.iter
    (fun a ->
      let s = Atom.arg a 0 and d = Atom.arg a 1 in
      let prev = Option.value ~default:[] (Hashtbl.find_opt succs (Term.hash s)) in
      Hashtbl.replace succs (Term.hash s) (d :: prev))
    atoms;
  let succ v = Option.value ~default:[] (Hashtbl.find_opt succs (Term.hash v)) in
  let index = Hashtbl.create 16 and lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] and counter = ref 0 and result = ref Term.Set.empty in
  let rec strongconnect v =
    let h = Term.hash v in
    Hashtbl.replace index h !counter;
    Hashtbl.replace lowlink h !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack h true;
    List.iter
      (fun w ->
        let hw = Term.hash w in
        if not (Hashtbl.mem index hw) then begin
          strongconnect w;
          Hashtbl.replace lowlink h
            (min (Hashtbl.find lowlink h) (Hashtbl.find lowlink hw))
        end
        else if Option.value ~default:false (Hashtbl.find_opt on_stack hw) then
          Hashtbl.replace lowlink h
            (min (Hashtbl.find lowlink h) (Hashtbl.find index hw)))
      (succ v);
    if Hashtbl.find lowlink h = Hashtbl.find index h then begin
      let scc = ref [] and continue_ = ref true in
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
          if List.exists (Term.equal single) (succ single) then
            result := Term.Set.add single !result
      | multiple -> List.iter (fun w -> result := Term.Set.add w !result) multiple
    end
  in
  List.iter
    (fun v -> if not (Hashtbl.mem index (Term.hash v)) then strongconnect v)
    verts;
  !result

let oracle_level levels a =
  let rec go i = if Symbol.equal levels.(i) (Atom.rel a) then i else go (i + 1) in
  go 0

(* The analysis: cycle variables, same-level in-edge groups, and the
   variables whose in-levels are not at most two adjacent ones. *)
let oracle_analysis levels atoms =
  let groups = Hashtbl.create 16 and in_levels = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let l = oracle_level levels a and tgt = Atom.arg a 1 in
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
  (oracle_cycle_vars atoms, agree, must_mark)

let oracle_properly_marked (q : Marked.Marked_query.t) =
  let cycles, agree, must_mark = oracle_analysis q.levels q.atoms in
  let marked v = Term.Set.mem v q.marked in
  List.for_all
    (fun a -> (not (marked (Atom.arg a 1))) || marked (Atom.arg a 0))
    q.atoms
  && Term.Set.for_all marked cycles
  && List.for_all
       (function
         | s :: rest -> List.for_all (fun s' -> marked s' = marked s) rest
         | [] -> true)
       agree
  && List.for_all marked must_mark

(* Bodies over K = 2, 3 or 4 levels and six variables: [(k, edges)]
   with edges [(level, source, target)] decoded modulo K and 6, so
   cycles, self-loops, same-level fan-in and non-adjacent in-levels all
   come up. The answer variable is the first variable of the body. *)
let marked_body_arb =
  QCheck.(
    pair (int_bound 2)
      (list_of_size Gen.(1 -- 8)
         (triple (int_bound 3) (int_bound 5) (int_bound 5))))

(* What the draws of one seed covered: cycles through two or more
   variables, self-loops, same-level fan-in, non-adjacent in-levels. *)
type marked_coverage = {
  mutable cycles : int;
  mutable loops : int;
  mutable fan_in : int;
  mutable non_adjacent : int;
}

let prop_marking_matches_oracle seed cov =
  QCheck.Test.make ~count
    ~name:
      (Printf.sprintf
         "Marked_query.is_properly_marked = hash-table oracle on every \
          marking, K = 2..4 (seed %d)"
         seed)
    marked_body_arb
    (fun (k_enc, edges) ->
      QCheck.assume (edges <> []);
      let kk = 2 + k_enc in
      let levels =
        Array.init kk (fun i -> Symbol.make (Printf.sprintf "L%d" i) ~arity:2)
      in
      let var i = Term.var (Printf.sprintf "m%d" (i mod 6)) in
      let atoms =
        List.map
          (fun (l, s, d) -> Atom.make levels.(l mod kk) [ var s; var d ])
          edges
      in
      let cycles, agree, must_mark = oracle_analysis levels atoms in
      let loops =
        List.filter (fun a -> Term.equal (Atom.arg a 0) (Atom.arg a 1)) atoms
      in
      if Term.Set.exists
           (fun v ->
             not (List.exists (fun a -> Term.equal (Atom.arg a 0) v) loops))
           cycles
      then cov.cycles <- cov.cycles + 1;
      if loops <> [] then cov.loops <- cov.loops + 1;
      if agree <> [] then cov.fan_in <- cov.fan_in + 1;
      if must_mark <> [] then cov.non_adjacent <- cov.non_adjacent + 1;
      let body_vars = Term.dedup (List.concat_map Atom.vars atoms) in
      let x = List.hd body_vars in
      let free = [ (x, x) ] in
      let base =
        Marked.Marked_query.make ~levels ~free ~marked:(Term.Set.singleton x)
          atoms
      in
      let rec subsets = function
        | [] -> [ [] ]
        | v :: rest ->
            let smaller = subsets rest in
            smaller @ List.map (fun s -> v :: s) smaller
      in
      List.for_all
        (fun extra ->
          let marked = Term.Set.of_list (x :: extra) in
          let shared = Marked.Marked_query.remark base ~marked in
          let fresh = Marked.Marked_query.make ~levels ~free ~marked atoms in
          let expected = oracle_properly_marked fresh in
          Marked.Marked_query.is_properly_marked shared = expected
          && Marked.Marked_query.is_properly_marked fresh = expected)
        (subsets (List.tl body_vars)))

let test_marking_oracle seed () =
  let cov = { cycles = 0; loops = 0; fan_in = 0; non_adjacent = 0 } in
  QCheck.Test.check_exn
    ~rand:(Random.State.make [| seed |])
    (prop_marking_matches_oracle seed cov);
  Alcotest.(check bool)
    (Printf.sprintf
       "draws cover cycles (%d), self-loops (%d), same-level fan-in (%d), \
        non-adjacent in-levels (%d)"
       cov.cycles cov.loops cov.fan_in cov.non_adjacent)
    true
    (cov.cycles > 0 && cov.loops > 0 && cov.fan_in > 0 && cov.non_adjacent > 0)

let () =
  if Sys.getenv_opt "FRONTIER_FAULTS" <> None then
    Printf.printf "FRONTIER_FAULTS=%d base schedule: %s\n%!" fault_seed_base
      (Guard.Faults.describe (Guard.Faults.of_seed fault_seed_base));
  Alcotest.run "properties"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_engine_matches_naive_reference;
            prop_zoo_chase_matches_naive;
            prop_parallel_chase_deterministic;
            prop_parallel_oblivious_deterministic;
            prop_kernel_rewriting_matches_naive_reference;
            prop_ucq_store_minimal;
            prop_implies_matches_naive;
            prop_isomorphic_matches_naive;
            prop_rewriting_answers_like_chase;
            prop_zoo_answering_agreement;
            prop_portfolio_agrees_with_chase;
            prop_portfolio_agrees_on_zoo_instances;
          ] );
      ( "arena",
        [ QCheck_alcotest.to_alcotest prop_compiled_hom_matches_naive ] );
      ( "eval",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_eval_answers_match_naive;
            prop_eval_ucq_matches_naive;
            prop_eval_zoo_answers_agree;
            prop_eval_ucq_one_table;
          ] );
      ( "containment",
        List.map
          (fun seed ->
            QCheck_alcotest.to_alcotest
              ~rand:(Random.State.make [| seed |])
              (prop_containment_across_cutoff seed))
          [ 1; 7; 42 ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_containment_cache_reuse; prop_containment_cache_two_domains ]
      );
      ( "core",
        List.map
          (fun seed ->
            QCheck_alcotest.to_alcotest
              ~rand:(Random.State.make [| seed |])
              (prop_core_matches_restart seed))
          [ 1; 7; 42 ] );
      ( "primitives",
        List.map
          (fun seed ->
            QCheck_alcotest.to_alcotest
              ~rand:(Random.State.make [| seed |])
              (prop_primitives_match_reference seed))
          [ 1; 7; 42 ]
        @ List.map
            (fun seed ->
              Alcotest.test_case
                (Printf.sprintf "proper marking = hash-table oracle (seed %d)"
                   seed)
                `Quick (test_marking_oracle seed))
            [ 1; 7; 42 ] );
      ( "generators",
        [
          Alcotest.test_case "CQ bodies never shrink to []" `Quick
            test_bodies_shrink_nonempty;
        ] );
      ( "pool",
        List.map QCheck_alcotest.to_alcotest
          [ prop_pool_primitives; prop_pool_reraises_lowest_failure ] );
      ( "faults",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_faulty_chase_is_prefix;
            prop_faulty_rewriting_is_sound;
            prop_faulty_answering_never_lies;
            prop_faulty_portfolio_never_lies;
          ] );
    ]
