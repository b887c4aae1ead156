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

(* One engine for every search, in two steps: [compile] turns a pattern
   into a program, and [run] searches a program against targets. Each
   pattern atom carries its own target fact set (the semi-naive chase
   partitions body atoms between "old", "delta" and "full" stages), and
   each domain-bound variable carries its own candidate pool.

   The whole search runs on bare ints: flexible terms become
   *registers* (an [int array] of bound term ids, [-1] when free), each
   pattern atom compiles to a slot array — one int per position, a rigid
   term id [>= 1] or [-(r + 1)] for register [r]; a repeated variable is
   simply the same register — and candidate rows stream off
   {!Fact_set.iter_join_candidates}'s packed id slabs. Backtracking pops
   a trail of register indices; nothing is allocated per node or per
   candidate, and a [Term.t] is rematerialized (via {!Term.of_id}) only
   when a complete homomorphism reaches the caller.

   Order contract: at every depth the seed is the alive pattern atom
   with the most bound positions (first maximum in pattern order). Which
   positions are bound at depth [d] depends only on the pre-bound terms
   and on the seeds chosen above [d] — a matched seed binds all its
   registers — so [compile] fixes the whole seed sequence, and each
   depth's bound positions, before any search runs. The candidate facts
   of a seed are tried in {!Fact_set.by_rel} order — the canonical
   per-layer order whatever seed constraint the index picks, because
   every position is re-checked here. With [prefer], a node first
   buffers its candidate rows and stable-sorts them by rank: lower ranks
   come first, ties keep that order, and nothing is pruned. The chase's
   fresh-null naming follows this order, which is what keeps chase
   stages bit-identical across runs and [-j]. *)

(* A compiled search: flat int arrays (plus the seeds' relation symbols),
   no terms and no tables, so a query can keep its programs for its
   lifetime at little cost. Registers are numbered by first occurrence:
   the flexible terms of the pattern in pattern order, then the domain
   variables. A depth is one seed choice; [code] and [bpos] hold one
   row of [width] ints per depth. *)
type program = {
  nregs : int;
  reg_term : int array;  (* term id of each register's flexible term *)
  pre_reg : int array;  (* register of each pre-bound term; -1: none *)
  dom_reg : int array;  (* register of each domain variable *)
  seed : int array;  (* per depth: pattern index of the seed atom *)
  rels : Symbol.t array;  (* per depth: the seed's relation *)
  width : int;  (* the largest arity, >= 1 *)
  code : int array;  (* [d * width + pos]: the seed's slot at [pos] *)
  nb : int array;  (* per depth: number of bound positions *)
  bpos : int array;
      (* [d * width + c]: bound position [c] of depth [d], highest
         position first *)
}

let compile ?(domain_vars = []) ~flexible ~bound pattern =
  let reg_of : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let reg_terms = ref [] in
  let nregs = ref 0 in
  let reg_for (t : Term.t) =
    match Hashtbl.find_opt reg_of t.Term.id with
    | Some r -> r
    | None ->
        let r = !nregs in
        incr nregs;
        Hashtbl.add reg_of t.Term.id r;
        reg_terms := t.Term.id :: !reg_terms;
        r
  in
  let patoms = Array.of_list pattern in
  let m = Array.length patoms in
  let slots =
    Array.map
      (fun (a : Atom.t) ->
        Array.map
          (fun (t : Term.t) ->
            if Term.Set.mem t flexible then -(reg_for t) - 1 else t.Term.id)
          a.Atom.args)
      patoms
  in
  let dom_reg = Array.of_list (List.map reg_for domain_vars) in
  let nregs = !nregs in
  let pre_reg =
    Array.of_list
      (List.map
         (fun (t : Term.t) ->
           Option.value ~default:(-1) (Hashtbl.find_opt reg_of t.Term.id))
         bound)
  in
  let is_bound = Array.make (max 1 nregs) false in
  Array.iter (fun r -> if r >= 0 then is_bound.(r) <- true) pre_reg;
  let known c = c >= 0 || is_bound.(-c - 1) in
  (* The seed order: one simulated descent, binding each seed's
     registers as a match would. *)
  let alive = Array.make m true in
  let order = ref [] and remaining = ref m in
  while !remaining > 0 do
    let best = ref (-1) and bn = ref (-1) in
    for j = 0 to m - 1 do
      if alive.(j) then begin
        let n =
          Array.fold_left (fun n c -> if known c then n + 1 else n) 0 slots.(j)
        in
        if n > !bn then begin
          best := j;
          bn := n
        end
      end
    done;
    let j = !best in
    let bound_pos = ref [] in
    Array.iteri (fun pos c -> if known c then bound_pos := pos :: !bound_pos) slots.(j);
    order := (j, !bound_pos) :: !order;
    (* Retire the seed and any alive entry sharing the same physical
       atom; a matched seed binds every register it holds. *)
    for k = 0 to m - 1 do
      if alive.(k) && patoms.(k) == patoms.(j) then begin
        alive.(k) <- false;
        decr remaining
      end
    done;
    Array.iter (fun c -> if c < 0 then is_bound.(-c - 1) <- true) slots.(j)
  done;
  let order = Array.of_list (List.rev !order) in
  let width = Array.fold_left (fun acc s -> max acc (Array.length s)) 1 slots in
  let code = Array.make (Array.length order * width) 0 in
  let bpos = Array.make (Array.length order * width) 0 in
  Array.iteri
    (fun d (j, bound_pos) ->
      Array.blit slots.(j) 0 code (d * width) (Array.length slots.(j));
      List.iteri (fun c pos -> bpos.((d * width) + c) <- pos) bound_pos)
    order;
  {
    nregs;
    reg_term = Array.of_list (List.rev !reg_terms);
    pre_reg;
    dom_reg;
    seed = Array.map fst order;
    rels = Array.map (fun (j, _) -> Atom.rel patoms.(j)) order;
    width;
    code;
    nb = Array.map (fun (_, l) -> List.length l) order;
    bpos;
  }

let run ?(image_ok = default_image_ok) ?prefer ?(pools = [||]) p ~targets
    ~init f =
  let ndepth = Array.length p.seed in
  let reg_val = Array.make (max 1 p.nregs) (-1) in
  let trail = Array.make (max 1 p.nregs) 0 in
  (* The bound ids of every depth, at the program's [bpos] offsets:
     [iter_join_candidates] re-reads its constraints between callback
     invocations (once per index layer), so each depth keeps its own. *)
  let bids = Array.make (max 1 (Array.length p.bpos)) 0 in
  let sp = ref 0 in
  let has_image_ok = not (image_ok == default_image_ok) in
  let shared_target = Array.length targets = 1 in
  (* -- preload the pre-bound registers ---------------------------- *)
  List.iteri
    (fun i (u : Term.t) ->
      let r = p.pre_reg.(i) in
      if r >= 0 then reg_val.(r) <- u.Term.id)
    init;
  let ops = ref 0 and nodes = ref 0 and sols = ref 0 in
  let emit () =
    incr sols;
    f reg_val
  in
  let nd = Array.length p.dom_reg in
  let rec bind_domain k =
    if k >= nd then emit ()
    else begin
      let r = p.dom_reg.(k) in
      let v = reg_val.(r) in
      let terms = pools.(k) in
      if v >= 0 then begin
        (* Pre-bound (e.g. by a body atom): still honour the pool. *)
        let rec memb i =
          i < Array.length terms
          && ((Array.unsafe_get terms i).Term.id = v || memb (i + 1))
        in
        if memb 0 then bind_domain (k + 1)
      end
      else
        for i = 0 to Array.length terms - 1 do
          let u = terms.(i) in
          if (not has_image_ok) || image_ok (Term.of_id p.reg_term.(r)) u
          then begin
            reg_val.(r) <- u.Term.id;
            bind_domain (k + 1);
            reg_val.(r) <- -1
          end
        done
    end
  in
  let code = p.code in
  let rec solve d =
    if d = ndepth then bind_domain 0
    else begin
      incr nodes;
      let arity = Symbol.arity p.rels.(d) in
      let off = d * p.width in
      let nb = p.nb.(d) in
      for c = off to off + nb - 1 do
        let k = code.(off + p.bpos.(c)) in
        bids.(c) <- (if k >= 0 then k else reg_val.(-k - 1))
      done;
      let try_row atoms ids row =
        let base = row * arity in
        let mark = !sp in
        let rec go pos =
          pos >= arity
          ||
          begin
            incr ops;
            let c = Array.unsafe_get code (off + pos) in
            let uid = Array.unsafe_get ids (base + pos) in
            if c >= 0 then uid = c && go (pos + 1)
            else
              let r = -c - 1 in
              let v = Array.unsafe_get reg_val r in
              if v >= 0 then v = uid && go (pos + 1)
              else if
                has_image_ok
                && not
                     (image_ok (Term.of_id p.reg_term.(r))
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
        if go 0 then solve (d + 1);
        while !sp > mark do
          decr sp;
          reg_val.(trail.(!sp)) <- -1
        done
      in
      let target = targets.(if shared_target then 0 else p.seed.(d)) in
      match prefer with
      | None ->
          Fact_set.iter_join_candidates target p.rels.(d) ~bound_pos:p.bpos
            ~bound_ids:bids ~off ~nb try_row
      | Some rank ->
          (* Steer which homomorphism is found first (the core search
             prefers folding onto original constants): buffer the node's
             rows, then try them lowest rank first, ties in index order. *)
          let rows = ref [] in
          Fact_set.iter_join_candidates target p.rels.(d) ~bound_pos:p.bpos
            ~bound_ids:bids ~off ~nb (fun atoms ids row ->
              rows := (rank atoms.(row), atoms, ids, row) :: !rows);
          List.iter
            (fun (_, atoms, ids, row) -> try_row atoms ids row)
            (List.stable_sort
               (fun (r1, _, _, _) (r2, _, _, _) -> Int.compare r1 r2)
               (List.rev !rows))
    end
  in
  let flush () =
    Atomic.incr c_searches;
    ignore (Atomic.fetch_and_add c_nodes !nodes);
    ignore (Atomic.fetch_and_add c_reg_ops !ops);
    ignore (Atomic.fetch_and_add c_solutions !sols)
  in
  (* [Stop] (and any caller exception) must not lose the counters. *)
  Fun.protect ~finally:flush (fun () -> solve 0)

let iter_multi ?(init = Term.Map.empty) ?(image_ok = default_image_ok)
    ?prefer ~flexible ~pattern ~domain_bindings f =
  if Term.Map.for_all (fun v u -> image_ok v u) init then begin
    let bound, values = List.split (Term.Map.bindings init) in
    let p =
      compile ~domain_vars:(List.map fst domain_bindings) ~flexible ~bound
        (List.map fst pattern)
    in
    let targets = Array.of_list (List.map snd pattern) in
    let pools =
      Array.of_list (List.map (fun (_, pool) -> Array.of_list pool) domain_bindings)
    in
    let vars = Array.map Term.of_id p.reg_term in
    run ~image_ok ?prefer ~pools p ~targets ~init:values (fun regs ->
        let mapping = ref init in
        for r = 0 to p.nregs - 1 do
          let v = regs.(r) in
          if v >= 0 then mapping := Term.Map.add vars.(r) (Term.of_id v) !mapping
        done;
        f !mapping)
  end

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
