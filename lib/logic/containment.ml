(* ------------------------------------------------------------------ *)
(* Decomposed solving                                                  *)
(* ------------------------------------------------------------------ *)

type solver_stats = { splits : int; prescreened : int }

let c_splits = Atomic.make 0
let c_prescreened = Atomic.make 0

let solver_stats () =
  { splits = Atomic.get c_splits; prescreened = Atomic.get c_prescreened }

exception Found

(* Is there a homomorphism of [atoms] into [target] extending [init]?
   One register-machine search with an early exit at the first
   solution. *)
let has_hom ?injective ~init ~flexible atoms target =
  try
    Homomorphism.iter_multi ?injective ~init ~flexible
      ~pattern:(List.map (fun a -> (a, target)) atoms)
      ~domain_bindings:[]
      (fun _ -> raise Found);
    false
  with Found -> true

(* Solve the containment homomorphism [from -> into] one connected
   component of [from]'s body at a time: components share no bindable
   variable (answer variables are pre-bound, constants and functional
   terms rigid), so the conjunction holds iff each component embeds
   independently — a product of small searches with early exit instead
   of one deep one. Components are tried smallest-first. *)
let exists_decomposed ~from ~into ~init =
  let flexible = Cq.var_set from in
  let target = Cq.as_fact_set into in
  let exists_component atoms = has_hom ~init ~flexible atoms target in
  match Cq.body_components from with
  | [ _ ] -> exists_component (Cq.atoms from)
  | comps ->
      Atomic.incr c_splits;
      let by_size =
        List.stable_sort
          (fun a b -> Int.compare (List.length a) (List.length b))
          comps
      in
      List.for_all exists_component by_size

(* Every [implies] call, for [memo_stats] (see the .mli). *)
let c_checks = Atomic.make 0

type memo_stats = { hits : int; misses : int; entries : int }

let memo_stats () = { hits = 0; misses = Atomic.get c_checks; entries = 0 }

let implies q1 q2 =
  Atomic.incr c_checks;
  (* Necessary condition first: a homomorphism [q2 -> q1] maps each atom
     to an atom with the same relation, so every relation of [q2] must
     occur in [q1]. One [land] on cached signature fingerprints rejects
     most negative checks before any search. *)
  Cq.sig_mask q2 land lnot (Cq.sig_mask q1) = 0
  && List.length (Cq.free q2) = List.length (Cq.free q1)
  &&
  if not (Cq.hom_feasible ~from:q2 ~into:q1) then begin
    (* Anchor or distance-profile refutation: no search at all. *)
    Atomic.incr c_prescreened;
    false
  end
  else
    let init =
      List.fold_left2
        (fun m v w -> Term.Map.add v w m)
        Term.Map.empty (Cq.free q2) (Cq.free q1)
    in
    exists_decomposed ~from:q2 ~into:q1 ~init

let equivalent q1 q2 = implies q1 q2 && implies q2 q1

(* Injectivity couples the components of the pattern, so [isomorphic]
   cannot be solved one component at a time. Invariants still apply as
   *prescreens*: the 1-WL color-refinement arrays must agree (this is
   what separates same-shape queries that differ only in which symmetric
   node carries a distinguishing atom — the dominant refutation case when
   classifying markings), and an isomorphism is in particular a
   homomorphism each way, so both directions must be hom-feasible. The
   search itself then runs in injective mode, failing a clashing binding
   the moment it is attempted instead of enumerating every (mostly
   non-injective) homomorphism and filtering afterwards. *)
let isomorphic q1 q2 =
  Cq.size q1 = Cq.size q2
  && List.length (Cq.vars q1) = List.length (Cq.vars q2)
  && String.equal (Cq.iso_key q1) (Cq.iso_key q2)
  && List.length (Cq.free q1) = List.length (Cq.free q2)
  && Cq.wl_equal q1 q2
  && Cq.hom_feasible ~from:q1 ~into:q2
  && Cq.hom_feasible ~from:q2 ~into:q1
  &&
  let init =
    List.fold_left2
      (fun m v w -> Term.Map.add v w m)
      Term.Map.empty (Cq.free q1) (Cq.free q2)
  in
  has_hom ~injective:true ~init ~flexible:(Cq.var_set q1) (Cq.atoms q1)
    (Cq.as_fact_set q2)

let core_of_query q =
  let redundant q atom =
    match
      List.filter (fun a -> not (Atom.equal a atom)) (Cq.atoms q)
    with
    | [] -> None
    | smaller_atoms ->
        let smaller = Cq.make ~free:(Cq.free q) smaller_atoms in
        (* [atom] is redundant iff the full query maps into the smaller
           one fixing the answer variables — i.e. the smaller query
           implies the full one. The subsumption-index fingerprint probe
           refutes most non-redundant candidates before any search. *)
        if Ucq_index.pair_feasible ~from:q ~into:smaller && implies smaller q
        then Some smaller
        else None
  in
  (* One pass over the atoms: after a removal the scan continues with the
     atoms after the removed one. The atoms before it were non-redundant,
     and stay so in the smaller query (see the .mli), so restarting from
     the first atom would only re-test them and remove the same atoms. *)
  let rec shrink q = function
    | [] -> q
    | atom :: rest -> (
        (* Free variables must keep occurring in the body. *)
        match redundant q atom with
        | Some smaller -> shrink smaller rest
        | None -> shrink q rest
        | exception Invalid_argument _ -> shrink q rest)
  in
  shrink q (Cq.atoms q)
