type t = { rel : Symbol.t; args : Term.t array }

let make rel args =
  if List.length args <> Symbol.arity rel then
    invalid_arg
      (Printf.sprintf "Atom.make: %s expects arity %d, got %d"
         (Symbol.name rel) (Symbol.arity rel) (List.length args));
  { rel; args = Array.of_list args }

let rel a = a.rel
let args a = Array.to_list a.args
let arg a i = a.args.(i)
let arity a = Array.length a.args

let compare a b =
  let c = Symbol.compare a.rel b.rel in
  if c <> 0 then c
  else
    let n = Array.length a.args in
    let rec go i =
      if i >= n then 0
      else
        let c = Term.compare a.args.(i) b.args.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let equal a b = a == b || compare a b = 0

let hash a =
  Array.fold_left
    (fun acc t -> (acc * 31) + Term.hash t)
    (Symbol.id a.rel) a.args

let dedup_preserving_order items =
  let _, rev =
    List.fold_left
      (fun (seen, acc) t ->
        if Term.Set.mem t seen then (seen, acc)
        else (Term.Set.add t seen, t :: acc))
      (Term.Set.empty, []) items
  in
  List.rev rev

let terms a = dedup_preserving_order (Array.to_list a.args)
let vars a = dedup_preserving_order (List.concat_map Term.vars (Array.to_list a.args))

let subst m a = { a with args = Array.map (Term.subst m) a.args }

(* Arity is preserved by construction, so this skips [make]'s validation
   and the list round-trip — it is the constructor of the chase's hot
   loop (imaging rule heads through a trigger). *)
let map_args f a = { a with args = Array.map f a.args }

let pp ppf a =
  Fmt.pf ppf "%a(%a)" Symbol.pp a.rel
    (Fmt.array ~sep:(Fmt.any ",") Term.pp)
    a.args

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
