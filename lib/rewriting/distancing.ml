open Logic

type pair = {
  a : Term.t;
  b : Term.t;
  dist_d : int option;
  dist_ch : int option;
}

let pairs run =
  let d = Chase.Engine.initial run in
  let g_d = Gaifman.of_fact_set d in
  let g_ch = Gaifman.of_fact_set (Chase.Engine.result run) in
  let dom = Term.Set.elements (Fact_set.domain d) in
  (* One BFS per source and graph; each partner is a lookup. *)
  let rec all_pairs = function
    | [] -> []
    | x :: rest ->
        let from_d = Gaifman.distances_from g_d x
        and from_ch = Gaifman.distances_from g_ch x in
        List.map
          (fun y ->
            {
              a = x;
              b = y;
              dist_d = Term.Map.find_opt y from_d;
              dist_ch = Term.Map.find_opt y from_ch;
            })
          rest
        @ all_pairs rest
  in
  all_pairs dom

let max_contraction run =
  List.fold_left
    (fun best p ->
      match (p.dist_d, p.dist_ch) with
      | Some dd, Some dc when dc > 0 ->
          let ratio = float_of_int dd /. float_of_int dc in
          (match best with
          | Some (_, r) when r >= ratio -> best
          | Some _ | None -> Some (p, ratio))
      | _ -> best)
    None (pairs run)
