(* No arena exists; see arena.mli. *)

type t = unit

let global = ()

type stats = { spans : int; bytes : int }

let stats () = { spans = 0; bytes = 0 }
