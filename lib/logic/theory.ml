type t = { name : string; rules : Tgd.t list }

let make ?(name = "") rules = { name; rules }
let name t = t.name
let rules t = t.rules

let signature t =
  List.fold_left
    (fun acc r -> Symbol.Set.union acc (Tgd.signature r))
    Symbol.Set.empty t.rules

let max_arity t =
  Symbol.Set.fold (fun s acc -> max acc (Symbol.arity s)) (signature t) 0

let is_binary t = max_arity t <= 2
let is_datalog t = List.for_all Tgd.is_datalog t.rules
let is_linear t = List.for_all Tgd.is_linear t.rules
let is_guarded t = List.for_all Tgd.is_guarded t.rules
let is_connected t = List.for_all Tgd.is_connected t.rules
let is_single_head t = List.for_all Tgd.is_single_head t.rules
let is_frontier_one t = List.for_all Tgd.is_frontier_one t.rules

let existential_rules t =
  List.filter (fun r -> not (Tgd.is_datalog r)) t.rules

let satisfied_in t f = List.for_all (fun r -> Tgd.satisfied_in r f) t.rules

let union a b = { name = a.name ^ "+" ^ b.name; rules = a.rules @ b.rules }

let pp ppf t =
  Fmt.pf ppf "@[<v>theory %s:@,%a@]" t.name
    (Fmt.list ~sep:Fmt.cut (fun ppf r ->
         Fmt.pf ppf "  %a" Tgd.pp r))
    t.rules
