type t = { id : int; view : view }

and view =
  | Const of string
  | Var of string
  | App of { fn : string; args : t list }

(* Hash-consing: one global table keyed by a structural key in which
   subterms are represented by their ids. The table is shared by every
   domain (the chase derives Skolem terms from worker domains), so all
   access goes through one mutex; uncontended, the lock costs a few tens
   of nanoseconds per term construction, and term *comparison* — the hot
   operation — never touches it. *)
type key = KConst of string | KVar of string | KApp of string * int list

let table : (key, t) Hashtbl.t = Hashtbl.create 4096
let counter = ref 0
let table_lock = Mutex.create ()

(* Reverse map: id -> term, a growable array indexed directly by the
   dense interning counter. The flat-arena join engine works on bare
   term ids and only rematerializes a [Term.t] when a binding survives
   to a solution, so the lookup must be O(1) and allocation-free. Reads
   are lock-free: slot [id] is written (under [table_lock]) before the
   term's id ever escapes the intern call, and the array reference is
   republished on growth, so a reader holding a valid id always finds
   its term in whichever array it loads. *)
let by_id : t option array ref = ref (Array.make 4096 None)

let intern key view =
  Mutex.protect table_lock (fun () ->
      match Hashtbl.find_opt table key with
      | Some t -> t
      | None ->
          incr counter;
          let t = { id = !counter; view } in
          Hashtbl.add table key t;
          let arr = !by_id in
          let n = Array.length arr in
          if t.id >= n then begin
            let arr' = Array.make (2 * max n t.id) None in
            Array.blit arr 0 arr' 0 n;
            arr'.(t.id) <- Some t;
            by_id := arr'
          end
          else arr.(t.id) <- Some t;
          t)

let of_id id =
  let arr = !by_id in
  if id < 1 || id >= Array.length arr then
    invalid_arg "Term.of_id: unknown term id"
  else
    match Array.unsafe_get arr id with
    | Some t -> t
    | None -> invalid_arg "Term.of_id: unknown term id"

let const name = intern (KConst name) (Const name)
let var name = intern (KVar name) (Var name)

let app fn args =
  intern (KApp (fn, List.map (fun a -> a.id) args)) (App { fn; args })

let compare a b = Int.compare a.id b.id
let equal a b = a.id = b.id
let hash t = t.id

let is_var t = match t.view with Var _ -> true | Const _ | App _ -> false
let is_const t = match t.view with Const _ -> true | Var _ | App _ -> false

let is_functional t =
  match t.view with App _ -> true | Const _ | Var _ -> false

module Int_map = Map.Make (Int)

let depth t =
  let memo = Hashtbl.create 16 in
  let rec go t =
    match t.view with
    | Const _ | Var _ -> 0
    | App { args; _ } -> (
        match Hashtbl.find_opt memo t.id with
        | Some d -> d
        | None ->
            let d = 1 + List.fold_left (fun acc a -> max acc (go a)) 0 args in
            Hashtbl.add memo t.id d;
            d)
  in
  go t

let dag_size t =
  let seen = Hashtbl.create 16 in
  let rec go t =
    if Hashtbl.mem seen t.id then ()
    else begin
      Hashtbl.add seen t.id ();
      match t.view with
      | Const _ | Var _ -> ()
      | App { args; _ } -> List.iter go args
    end
  in
  go t;
  Hashtbl.length seen

let vars t =
  match t.view with
  | Var _ -> [ t ]
  | Const _ -> []
  | App _ ->
      let seen = Hashtbl.create 16 in
      let acc = ref [] in
      let rec go t =
        if not (Hashtbl.mem seen t.id) then begin
          Hashtbl.add seen t.id ();
          match t.view with
          | Var _ -> acc := t :: !acc
          | Const _ -> ()
          | App { args; _ } -> List.iter go args
        end
      in
      go t;
      List.rev !acc

let subst m t =
  match t.view with
  | Const _ | Var _ -> Option.value ~default:t (Int_map.find_opt t.id m)
  | App _ ->
      let memo = Hashtbl.create 16 in
      let rec go t =
        match Int_map.find_opt t.id m with
        | Some image -> image
        | None -> (
            match t.view with
            | Const _ | Var _ -> t
            | App { fn; args } -> (
                match Hashtbl.find_opt memo t.id with
                | Some t' -> t'
                | None ->
                    let args' = List.map go args in
                    let t' =
                      if List.for_all2 equal args args' then t else app fn args'
                    in
                    Hashtbl.add memo t.id t';
                    t'))
      in
      go t

let rec pp ppf t =
  match t.view with
  | Const name -> Fmt.string ppf name
  | Var name -> Fmt.pf ppf "%s" name
  | App { fn; args } ->
      Fmt.pf ppf "%s(%a)" fn (Fmt.list ~sep:(Fmt.any ",") pp) args

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

let dedup l =
  let _, rev =
    List.fold_left
      (fun (seen, acc) x ->
        if Set.mem x seen then (seen, acc) else (Set.add x seen, x :: acc))
      (Set.empty, []) l
  in
  List.rev rev

let subst_of_bindings bindings =
  List.fold_left (fun m (v, image) -> Int_map.add v.id image m) Int_map.empty
    bindings
