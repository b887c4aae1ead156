(* ------------------------------------------------------------------ *)
(* Decomposed solving                                                  *)
(* ------------------------------------------------------------------ *)

type solver_stats = { splits : int; prescreened : int }

let c_splits = Atomic.make 0
let c_prescreened = Atomic.make 0

let solver_stats () =
  { splits = Atomic.get c_splits; prescreened = Atomic.get c_prescreened }

exception Found

(* Solve the containment homomorphism [from -> into] one connected
   component of [from]'s body at a time: components share no bindable
   variable (answer variables are pre-bound, constants and functional
   terms rigid), so the conjunction holds iff each component embeds
   independently — a product of small searches with early exit instead
   of one deep one. [from]'s cached programs come smallest first; each
   run stops at its first solution. *)
let exists_decomposed ~from ~into =
  let progs = Cq.hom_programs from in
  if Array.length progs > 1 then Atomic.incr c_splits;
  let targets = [| Cq.as_fact_set into |] and init = Cq.free into in
  Array.for_all
    (fun p ->
      try
        Homomorphism.run p ~targets ~init (fun _ -> raise Found);
        false
      with Found -> true)
    progs

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
  else exists_decomposed ~from:q2 ~into:q1

let equivalent q1 q2 = implies q1 q2 && implies q2 q1

let isomorphic q1 q2 = Cq.canon_id q1 = Cq.canon_id q2

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
