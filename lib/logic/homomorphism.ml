type mapping = Term.t Term.Map.t

type problem = {
  init : mapping;
  image_ok : Term.t -> Term.t -> bool;
  prefer : (Atom.t -> int) option;
  domain_vars : Term.t list;
  flexible : Term.Set.t;
  pattern : Atom.t list;
  target : Fact_set.t;
}

(* The default image filter, by name: the compiled engine skips the
   per-binding [image_ok] call entirely when the caller passed nothing
   (detected by physical equality), keeping the common chase path free
   of closure calls. *)
let default_image_ok (_ : Term.t) (_ : Term.t) = true

let make ?(init = Term.Map.empty) ?(image_ok = default_image_ok) ?prefer
    ?(domain_vars = []) ~flexible ~pattern ~target () =
  { init; image_ok; prefer; domain_vars; flexible; pattern; target }

exception Stop

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

type counters = {
  searches : int;  (** compiled-engine invocations *)
  nodes : int;  (** search nodes (seed selections) *)
  reg_ops : int;  (** register-machine slot checks *)
  solutions : int;  (** homomorphisms enumerated by the compiled engine *)
}

let c_searches = Atomic.make 0
let c_nodes = Atomic.make 0
let c_reg_ops = Atomic.make 0
let c_solutions = Atomic.make 0

let counters () =
  {
    searches = Atomic.get c_searches;
    nodes = Atomic.get c_nodes;
    reg_ops = Atomic.get c_reg_ops;
    solutions = Atomic.get c_solutions;
  }

(* ------------------------------------------------------------------ *)
(* Register machine                                                    *)
(* ------------------------------------------------------------------ *)

(* One engine for every search. Each pattern atom carries its own target
   fact set (the semi-naive chase partitions body atoms between "old",
   "delta" and "full" stages), and each domain-bound variable carries its
   own candidate pool.

   The flat-arena register machine. The whole search runs on bare ints:
   flexible terms become *registers* (an [int array] of bound term ids,
   [-1] when free), each pattern atom compiles to a slot array — one int
   per position, a rigid term id [>= 1] or [-(r + 1)] for register [r];
   a repeated variable is simply the same register — and candidate rows
   stream off {!Fact_set.iter_join_candidates}'s packed id slabs.
   Backtracking pops a trail of register indices; nothing is allocated
   per node or per candidate, and a [Term.t] is rematerialized (via
   {!Term.of_id}) only when a complete homomorphism reaches the caller.

   Order contract: at every node the seed is the alive pattern atom with
   the most bound positions (first maximum in pattern order), and its
   candidate facts are tried in {!Fact_set.by_rel} order — the canonical
   per-layer order whatever seed constraint the index picks, because
   every position is re-checked here. With [prefer], a node first
   buffers its candidate rows and stable-sorts them by rank: lower ranks
   come first, ties keep that order, and nothing is pruned. The chase's fresh-null naming follows this order, which is
   what keeps chase stages bit-identical across runs and [-j]. *)
let iter_multi ?(init = Term.Map.empty) ?(image_ok = default_image_ok)
    ?prefer ~flexible ~pattern ~domain_bindings f =
  (* -- compile: registers, slot arrays, pools ---------------------- *)
  let reg_of : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let reg_vars = ref [] in
  let nregs_ref = ref 0 in
  let reg_for (t : Term.t) =
    match Hashtbl.find_opt reg_of t.Term.id with
    | Some r -> r
    | None ->
        let r = !nregs_ref in
        incr nregs_ref;
        Hashtbl.add reg_of t.Term.id r;
        reg_vars := t :: !reg_vars;
        r
  in
  let entries = Array.of_list pattern in
  let m = Array.length entries in
  let patoms = Array.map fst entries in
  let targets = Array.map snd entries in
  let rels = Array.map Atom.rel patoms in
  let slots =
    Array.map
      (fun (a : Atom.t) ->
        Array.map
          (fun (t : Term.t) ->
            if Term.Set.mem t flexible then -(reg_for t) - 1 else t.Term.id)
          a.Atom.args)
      patoms
  in
  let dentries = Array.of_list domain_bindings in
  let nd = Array.length dentries in
  let d_var = Array.map fst dentries in
  let d_reg = Array.map (fun (v, _) -> reg_for v) dentries in
  let d_pool_terms = Array.map (fun (_, pool) -> Array.of_list pool) dentries in
  let d_pool_ids =
    Array.map (Array.map (fun (t : Term.t) -> t.Term.id)) d_pool_terms
  in
  let nregs = !nregs_ref in
  let reg_var = Array.of_list (List.rev !reg_vars) in
  let reg_val = Array.make (max 1 nregs) (-1) in
  let trail = Array.make (max 1 nregs) 0 in
  let sp = ref 0 in
  let max_arity = Array.fold_left (fun acc s -> max acc (Array.length s)) 0 slots in
  (* One scratch row per search depth: [iter_join_candidates] re-reads
     its bound arrays between callback invocations (once per index
     layer), and the recursive [solve] inside the callback fills its own
     node's constraints — a shared row would be clobbered mid-iteration. *)
  let bound_pos = Array.make_matrix (max 1 m) (max 1 max_arity) 0 in
  let bound_ids = Array.make_matrix (max 1 m) (max 1 max_arity) 0 in
  let alive = Array.make (max 1 m) true in
  (* Along one search path each atom is removed at most once, so a stack
     of [m] indices covers every level's removals. *)
  let removed = Array.make (max 1 m) 0 in
  let rsp = ref 0 in
  let has_image_ok = not (image_ok == default_image_ok) in
  (* -- init: preload registers ------------------------------------ *)
  Term.Map.iter
    (fun (v : Term.t) (u : Term.t) ->
      match Hashtbl.find_opt reg_of v.Term.id with
      | Some r -> reg_val.(r) <- u.Term.id
      | None -> ())
    init;
  let ops = ref 0 and nodes = ref 0 and sols = ref 0 in
  let emit () =
    incr sols;
    let mapping = ref init in
    for r = 0 to nregs - 1 do
      let v = reg_val.(r) in
      if v >= 0 then mapping := Term.Map.add reg_var.(r) (Term.of_id v) !mapping
    done;
    f !mapping
  in
  let rec bind_domain k =
    if k >= nd then emit ()
    else begin
      let r = d_reg.(k) in
      let v = reg_val.(r) in
      let ids = d_pool_ids.(k) in
      if v >= 0 then begin
        (* Pre-bound (e.g. by a body atom): still honour the pool. *)
        let rec memb i =
          i < Array.length ids && (ids.(i) = v || memb (i + 1))
        in
        if memb 0 then bind_domain (k + 1)
      end
      else
        let terms = d_pool_terms.(k) in
        for i = 0 to Array.length ids - 1 do
          let uid = ids.(i) in
          if (not has_image_ok) || image_ok d_var.(k) terms.(i) then begin
            reg_val.(r) <- uid;
            bind_domain (k + 1);
            reg_val.(r) <- -1
          end
        done
    end
  in
  let rec solve remaining_n =
    if remaining_n = 0 then bind_domain 0
    else begin
      incr nodes;
      (* Most-bound-first seed: first maximum in pattern order, over the
         alive mask. *)
      let best = ref (-1) and bn = ref (-1) in
      for j = 0 to m - 1 do
        if alive.(j) then begin
          let sl = slots.(j) in
          let n = ref 0 in
          for pos = 0 to Array.length sl - 1 do
            let c = Array.unsafe_get sl pos in
            if c >= 0 || Array.unsafe_get reg_val (-c - 1) >= 0 then incr n
          done;
          if !n > !bn then begin
            best := j;
            bn := !n
          end
        end
      done;
      let j = !best in
      let sl = slots.(j) in
      let arity = Array.length sl in
      (* Bound constraints: every position with a known id (rigid slot or
         bound register), highest position first. *)
      let depth = m - remaining_n in
      let bound_pos = bound_pos.(depth) and bound_ids = bound_ids.(depth) in
      let nb = ref 0 in
      for pos = arity - 1 downto 0 do
        let c = sl.(pos) in
        let id = if c >= 0 then c else reg_val.(-c - 1) in
        if id >= 0 then begin
          bound_pos.(!nb) <- pos;
          bound_ids.(!nb) <- id;
          incr nb
        end
      done;
      (* Retire the chosen atom — and any alive entry sharing the same
         physical atom. *)
      let rmark = !rsp in
      let a_j = patoms.(j) in
      for k = 0 to m - 1 do
        if alive.(k) && patoms.(k) == a_j then begin
          alive.(k) <- false;
          removed.(!rsp) <- k;
          incr rsp
        end
      done;
      let nrem = remaining_n - (!rsp - rmark) in
      let try_row atoms ids row =
        let base = row * arity in
        let mark = !sp in
        let rec go pos =
          pos >= arity
          ||
          begin
            incr ops;
            let c = Array.unsafe_get sl pos in
            let uid = Array.unsafe_get ids (base + pos) in
            if c >= 0 then uid = c && go (pos + 1)
            else
              let r = -c - 1 in
              let v = Array.unsafe_get reg_val r in
              if v >= 0 then v = uid && go (pos + 1)
              else if
                has_image_ok
                && not
                     (image_ok reg_var.(r)
                        (Array.unsafe_get atoms row).Atom.args.(pos))
              then false
              else begin
                reg_val.(r) <- uid;
                trail.(!sp) <- r;
                incr sp;
                go (pos + 1)
              end
          end
        in
        if go 0 then solve nrem;
        while !sp > mark do
          decr sp;
          reg_val.(trail.(!sp)) <- -1
        done
      in
      let nb = !nb in
      (match prefer with
      | None ->
          Fact_set.iter_join_candidates targets.(j) rels.(j) ~bound_pos
            ~bound_ids ~nb try_row
      | Some rank ->
          (* Steer which homomorphism is found first (the core search
             prefers folding onto original constants): buffer the node's
             rows, then try them lowest rank first, ties in index order. *)
          let rows = ref [] in
          Fact_set.iter_join_candidates targets.(j) rels.(j) ~bound_pos
            ~bound_ids ~nb (fun atoms ids row ->
              rows := (rank atoms.(row), atoms, ids, row) :: !rows);
          List.iter
            (fun (_, atoms, ids, row) -> try_row atoms ids row)
            (List.stable_sort
               (fun (r1, _, _, _) (r2, _, _, _) -> Int.compare r1 r2)
               (List.rev !rows)));
      while !rsp > rmark do
        decr rsp;
        alive.(removed.(!rsp)) <- true
      done
    end
  in
  let flush () =
    Atomic.incr c_searches;
    ignore (Atomic.fetch_and_add c_nodes !nodes);
    ignore (Atomic.fetch_and_add c_reg_ops !ops);
    ignore (Atomic.fetch_and_add c_solutions !sols)
  in
  if Term.Map.for_all (fun v u -> image_ok v u) init then
    (* [Stop] (and any caller exception) must not lose the counters. *)
    Fun.protect ~finally:flush (fun () -> solve m)

let iter p f =
  let pool =
    lazy (Term.Set.elements (Fact_set.domain p.target))
  in
  let domain_bindings =
    List.map (fun v -> (v, Lazy.force pool)) p.domain_vars
  in
  iter_multi ~init:p.init ~image_ok:p.image_ok ?prefer:p.prefer
    ~flexible:p.flexible
    ~pattern:(List.map (fun a -> (a, p.target)) p.pattern)
    ~domain_bindings f

let find p =
  let result = ref None in
  (try
     iter p (fun m ->
         result := Some m;
         raise Stop)
   with Stop -> ());
  !result

let exists p = find p <> None

let count p =
  let n = ref 0 in
  iter p (fun _ -> incr n);
  !n

let apply mapping ~flexible atom =
  let image t =
    if Term.Set.mem t flexible then
      match Term.Map.find_opt t mapping with
      | Some u -> u
      | None -> invalid_arg "Homomorphism.apply: unmapped flexible term"
    else t
  in
  Atom.map_args image atom
