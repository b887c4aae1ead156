(* Crash-safe snapshots, sinks and the codec. See checkpoint.mli for
   the contract.

   Layout of a snapshot file:

     frontier-snapshot <version>\n
     <md5-hex> <payload-length>\n
     <payload>

   and the payload is line-oriented:

     kind <ns>
     round <int>
     meta <ns-key><ns-value>          (zero or more)
     section <ns-name> <line-count>   (zero or more, followed by its lines)
     <line>...

   where <ns> is a netstring (<decimal-length>:<bytes>). Nothing in the
   payload is escaped — writers promise newline-free meta values and
   section lines (enforced at [write]), and the netstrings make names
   and values self-delimiting.

   The reader trusts nothing before the checksum: magic, version,
   length, digest, in that order. A torn write (real or injected) fails
   the length/digest check; a corrupt read fails the digest; only then
   is the payload parsed, and parse failures still reject the file
   rather than half-load it. *)

open Logic

(* ------------------------------------------------------------------ *)
(* Process-wide counters                                               *)
(* ------------------------------------------------------------------ *)

type counters = {
  writes : int;
  write_failures : int;
  bytes_written : int;
  rejected_reads : int;
}

let writes_c = Atomic.make 0
let write_failures_c = Atomic.make 0
let bytes_written_c = Atomic.make 0
let rejected_reads_c = Atomic.make 0

let counters () =
  {
    writes = Atomic.get writes_c;
    write_failures = Atomic.get write_failures_c;
    bytes_written = Atomic.get bytes_written_c;
    rejected_reads = Atomic.get rejected_reads_c;
  }

let reset_counters () =
  Atomic.set writes_c 0;
  Atomic.set write_failures_c 0;
  Atomic.set bytes_written_c 0;
  Atomic.set rejected_reads_c 0

(* ------------------------------------------------------------------ *)
(* Netstrings                                                          *)
(* ------------------------------------------------------------------ *)

(* One field syntax for the snapshot payload and every [Codec]
   encoding. A decode failure is [Codec.Error]; the snapshot reader
   reports it as [Malformed]. *)

exception Decode_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

let ns b s =
  Buffer.add_string b (string_of_int (String.length s));
  Buffer.add_char b ':';
  Buffer.add_string b s

let take_ns s pos =
  let n = String.length s in
  let rec digits i acc seen =
    if i >= n then err "unterminated length prefix"
    else
      match s.[i] with
      | '0' .. '9' -> digits (i + 1) ((acc * 10) + Char.code s.[i] - 48) true
      | ':' when seen -> (i + 1, acc)
      | c -> err "bad length prefix char %C" c
  in
  let start, len = digits pos 0 false in
  if start + len > n then err "field overruns input";
  (String.sub s start len, start + len)

(* ------------------------------------------------------------------ *)
(* Snapshot files                                                      *)
(* ------------------------------------------------------------------ *)

module Snapshot = struct
  type t = {
    kind : string;
    round : int;
    meta : (string * string) list;
    sections : (string * string list) list;
  }

  let version = 1
  let magic = "frontier-snapshot"

  type error =
    | Missing of string
    | Bad_magic of string
    | Bad_version of int
    | Bad_checksum of string
    | Malformed of string
    | Io of string

  let describe_error = function
    | Missing p -> Printf.sprintf "missing snapshot: %s" p
    | Bad_magic p -> Printf.sprintf "not a snapshot file: %s" p
    | Bad_version v ->
        Printf.sprintf "snapshot format version %d (this build reads %d)" v
          version
    | Bad_checksum p -> Printf.sprintf "checksum mismatch (torn/corrupt): %s" p
    | Malformed m -> Printf.sprintf "malformed snapshot payload: %s" m
    | Io m -> Printf.sprintf "snapshot IO failure: %s" m

  let meta t k = List.assoc_opt k t.meta
  let meta_int t k = Option.bind (meta t k) int_of_string_opt

  let section t name =
    match List.assoc_opt name t.sections with Some l -> l | None -> []

  (* -------------------- rendering -------------------- *)

  let check_line_free what s =
    if String.contains s '\n' then
      invalid_arg
        (Printf.sprintf "Checkpoint.Snapshot.write: newline in %s" what)

  let render_payload t =
    let b = Buffer.create 8192 in
    check_line_free "kind" t.kind;
    Buffer.add_string b "kind ";
    ns b t.kind;
    Buffer.add_char b '\n';
    Buffer.add_string b (Printf.sprintf "round %d\n" t.round);
    List.iter
      (fun (k, v) ->
        check_line_free "meta key" k;
        check_line_free "meta value" v;
        Buffer.add_string b "meta ";
        ns b k;
        ns b v;
        Buffer.add_char b '\n')
      t.meta;
    List.iter
      (fun (name, lines) ->
        check_line_free "section name" name;
        Buffer.add_string b "section ";
        ns b name;
        Buffer.add_string b (Printf.sprintf " %d\n" (List.length lines));
        List.iter
          (fun line ->
            check_line_free "section line" line;
            Buffer.add_string b line;
            Buffer.add_char b '\n')
          lines)
      t.sections;
    Buffer.contents b

  (* -------------------- parsing -------------------- *)

  let expect_prefix line p =
    let n = String.length p in
    if String.length line >= n && String.sub line 0 n = p then
      String.sub line n (String.length line - n)
    else err "expected %S line" (String.trim p)

  let parse_int what s =
    match int_of_string_opt (String.trim s) with
    | Some i -> i
    | None -> err "bad integer in %s" what

  let parse_payload payload =
    let lines = String.split_on_char '\n' payload in
    (* the payload ends with '\n', so drop the final empty chunk *)
    let lines =
      match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
    in
    match lines with
    | kind_l :: round_l :: rest ->
        let kind_f = expect_prefix kind_l "kind " in
        let kind, p = take_ns kind_f 0 in
        if p <> String.length kind_f then err "trailing kind bytes";
        let round = parse_int "round" (expect_prefix round_l "round ") in
        let meta = ref [] and sections = ref [] in
        let rec go = function
          | [] -> ()
          | l :: rest when String.length l >= 5 && String.sub l 0 5 = "meta " ->
              let f = String.sub l 5 (String.length l - 5) in
              let k, p = take_ns f 0 in
              let v, p = take_ns f p in
              if p <> String.length f then err "trailing meta bytes";
              meta := (k, v) :: !meta;
              go rest
          | l :: rest
            when String.length l >= 8 && String.sub l 0 8 = "section " ->
              let f = String.sub l 8 (String.length l - 8) in
              let name, p = take_ns f 0 in
              let count =
                parse_int "section count"
                  (String.sub f p (String.length f - p))
              in
              if count < 0 then err "negative section count";
              let rec take k acc rest =
                if k = 0 then (List.rev acc, rest)
                else
                  match rest with
                  | [] -> err "section shorter than declared"
                  | l :: rest -> take (k - 1) (l :: acc) rest
              in
              let body, rest = take count [] rest in
              sections := (name, body) :: !sections;
              go rest
          | l :: _ -> err "unrecognized line %S" l
        in
        go rest;
        { kind; round; meta = List.rev !meta; sections = List.rev !sections }
    | _ -> err "payload too short"

  (* -------------------- files -------------------- *)

  let file_name round = Printf.sprintf "snap-%08d.ckpt" round

  let round_of_file name =
    if
      String.length name = String.length "snap-00000000.ckpt"
      && String.sub name 0 5 = "snap-"
      && Filename.check_suffix name ".ckpt"
    then int_of_string_opt (String.sub name 5 8)
    else None

  let fsync_dir dir =
    (* Best-effort: persist the rename itself. Some filesystems refuse
       fsync on a directory fd; that costs durability of the *newest*
       snapshot on power loss, never correctness. *)
    match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
    | exception Unix.Unix_error _ -> ()
    | fd ->
        (try Unix.fsync fd with Unix.Unix_error _ -> ());
        Unix.close fd

  let write ~dir t =
    let result =
      try
        let payload = render_payload t in
        let digest = Digest.to_hex (Digest.string payload) in
        let payload_on_disk =
          match Guard.Faults.io_fate `Write with
          | `Torn -> String.sub payload 0 (String.length payload * 2 / 3)
          | _ -> payload
        in
        let header =
          Printf.sprintf "%s %d\n%s %d\n" magic version digest
            (String.length payload)
        in
        let path = Filename.concat dir (file_name t.round) in
        let tmp = Filename.temp_file ~temp_dir:dir "snap-" ".tmp" in
        let cleanup () = try Sys.remove tmp with Sys_error _ -> () in
        (try
           let oc = open_out_bin tmp in
           Fun.protect
             ~finally:(fun () -> close_out_noerr oc)
             (fun () ->
               output_string oc header;
               output_string oc payload_on_disk;
               flush oc;
               match Guard.Faults.io_fate `Fsync with
               | `Enospc ->
                   raise (Unix.Unix_error (Unix.ENOSPC, "fsync", tmp))
               | _ -> Unix.fsync (Unix.descr_of_out_channel oc));
           Sys.rename tmp path;
           fsync_dir dir
         with e ->
           cleanup ();
           raise e);
        Ok (path, String.length payload)
      with
      | Invalid_argument m -> Error (Io m)
      | Sys_error m -> Error (Io m)
      | Unix.Unix_error (e, fn, _) ->
          Error (Io (Printf.sprintf "%s: %s" fn (Unix.error_message e)))
    in
    match result with
    | Ok (path, len) ->
        Atomic.incr writes_c;
        ignore (Atomic.fetch_and_add bytes_written_c len);
        Ok path
    | Error e ->
        Atomic.incr write_failures_c;
        Error e

  let read path =
    if not (Sys.file_exists path) then Error (Missing path)
    else
      match In_channel.with_open_bin path In_channel.input_all with
      | exception Sys_error m -> Error (Io m)
      | content -> (
          let content =
            match Guard.Faults.io_fate `Read with
            | `Corrupt when String.length content > 0 ->
                let b = Bytes.of_string content in
                let i = Bytes.length b / 2 in
                Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
                Bytes.to_string b
            | _ -> content
          in
          let line_end from =
            match String.index_from_opt content from '\n' with
            | Some i -> i
            | None -> -1
          in
          let e1 = line_end 0 in
          if e1 < 0 then Error (Bad_magic path)
          else
            let l1 = String.sub content 0 e1 in
            match String.split_on_char ' ' l1 with
            | [ m; v ] when m = magic -> (
                match int_of_string_opt v with
                | None -> Error (Bad_magic path)
                | Some v when v <> version -> Error (Bad_version v)
                | Some _ -> (
                    let e2 = line_end (e1 + 1) in
                    if e2 < 0 then Error (Bad_checksum path)
                    else
                      let l2 = String.sub content (e1 + 1) (e2 - e1 - 1) in
                      match String.split_on_char ' ' l2 with
                      | [ digest; len_s ] -> (
                          match int_of_string_opt len_s with
                          | None -> Error (Bad_checksum path)
                          | Some len ->
                              let payload_start = e2 + 1 in
                              let avail =
                                String.length content - payload_start
                              in
                              if avail <> len then Error (Bad_checksum path)
                              else
                                let payload =
                                  String.sub content payload_start len
                                in
                                if
                                  Digest.to_hex (Digest.string payload)
                                  <> digest
                                then Error (Bad_checksum path)
                                else (
                                  match parse_payload payload with
                                  | t -> Ok t
                                  | exception Decode_error m -> Error (Malformed m)))
                      | _ -> Error (Bad_checksum path)))
            | _ -> Error (Bad_magic path))

  let list ~dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | files ->
        Array.to_list files
        |> List.filter_map (fun f ->
               match round_of_file f with
               | Some r -> Some (r, Filename.concat dir f)
               | None -> None)
        |> List.sort (fun (a, _) (b, _) -> compare b a)

  let load_latest ~dir =
    let rec go rejected = function
      | [] -> (None, rejected)
      | (_, path) :: rest -> (
          match read path with
          | Ok t -> (Some (t, path), rejected)
          | Error _ ->
              Atomic.incr rejected_reads_c;
              go (rejected + 1) rest)
    in
    go 0 (list ~dir)
end

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

type sink = { dir : string; every : int; min_interval_s : float; keep : int }

let rec mkdirs d =
  if d = "" || d = "." || Sys.file_exists d then ()
  else begin
    let parent = Filename.dirname d in
    if parent <> d then mkdirs parent;
    try Unix.mkdir d 0o755
    with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ()
  end

let sink ?(every = 1) ?(min_interval_s = 0.5) ?(keep = 4) dir =
  if every < 1 then invalid_arg "Checkpoint.sink: every < 1";
  if keep < 1 then invalid_arg "Checkpoint.sink: keep < 1";
  mkdirs dir;
  { dir; every; min_interval_s; keep }

let prune sink =
  let rec drop k = function
    | [] -> ()
    | (_, path) :: rest ->
        if k > 0 then drop (k - 1) rest
        else begin
          (try Sys.remove path with Sys_error _ -> ());
          drop 0 rest
        end
  in
  drop sink.keep (Snapshot.list ~dir:sink.dir)

let save_to sink snap =
  match Snapshot.write ~dir:sink.dir snap with
  | Ok _ -> prune sink
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

module Codec = struct
  exception Error = Decode_error

  let concat fields =
    let b = Buffer.create 64 in
    List.iter (ns b) fields;
    Buffer.contents b

  let fields s =
    let n = String.length s in
    let rec go pos acc =
      if pos >= n then List.rev acc
      else
        let f, pos = take_ns s pos in
        go pos (f :: acc)
    in
    go 0 []

  let list_to_string enc l = concat (List.map enc l)
  let list_of_string dec s = List.map dec (fields s)

  let int_of_string s =
    match Stdlib.int_of_string_opt s with
    | Some i -> i
    | None -> err "bad integer %S" s

  (* Terms: v<ns> (variable) | k<ns> (constant) | f<ns>(...) (Skolem).
     Decoding re-interns through the hash-consing constructors — ids are
     process-local and never serialized. *)

  let rec enc_term b t =
    match t.Term.view with
    | Term.Var v ->
        Buffer.add_char b 'v';
        ns b v
    | Term.Const c ->
        Buffer.add_char b 'k';
        ns b c
    | Term.App { fn; args } ->
        Buffer.add_char b 'f';
        ns b fn;
        Buffer.add_char b '(';
        List.iter (enc_term b) args;
        Buffer.add_char b ')'

  let expect s pos c =
    if pos >= String.length s || s.[pos] <> c then
      err "expected %C at %d" c pos

  (* Fresh-variable names are [prefix#n] from a process-global counter
     ([Cq.fresh_var]). A decoded snapshot carries the dead process's
     names, so reserve each [n] we see: otherwise the resuming process
     could mint the "fresh" [u#10] while a decoded disjunct already uses
     [u#10], and the capture silently absorbs rewriting candidates (the
     saturation then under-approximates — observed, not hypothetical). *)
  let reserve_fresh_name v =
    match String.rindex_opt v '#' with
    | None -> ()
    | Some i -> (
        match
          Stdlib.int_of_string_opt
            (String.sub v (i + 1) (String.length v - i - 1))
        with
        | Some n when n > 0 -> Cq.reserve_fresh n
        | _ -> ())

  let rec dec_term s pos =
    if pos >= String.length s then err "truncated term";
    match s.[pos] with
    | 'v' ->
        let v, p = take_ns s (pos + 1) in
        reserve_fresh_name v;
        (Term.var v, p)
    | 'k' ->
        let c, p = take_ns s (pos + 1) in
        (Term.const c, p)
    | 'f' ->
        let fn, p = take_ns s (pos + 1) in
        expect s p '(';
        let rec args acc p =
          if p >= String.length s then err "unterminated term args"
          else if s.[p] = ')' then (List.rev acc, p + 1)
          else
            let t, p = dec_term s p in
            args (t :: acc) p
        in
        let args, p = args [] (p + 1) in
        (Term.app fn args, p)
    | c -> err "bad term tag %C" c

  (* Atoms: A<ns-rel>(<terms>) — arity recovered from the argument
     count, symbol re-interned by (name, arity). *)

  let enc_atom b a =
    Buffer.add_char b 'A';
    ns b (Symbol.name (Atom.rel a));
    Buffer.add_char b '(';
    List.iter (enc_term b) (Atom.args a);
    Buffer.add_char b ')'

  let dec_atom s pos =
    expect s pos 'A';
    let rel, p = take_ns s (pos + 1) in
    expect s p '(';
    let rec args acc p =
      if p >= String.length s then err "unterminated atom args"
      else if s.[p] = ')' then (List.rev acc, p + 1)
      else
        let t, p = dec_term s p in
        args (t :: acc) p
    in
    let args, p = args [] (p + 1) in
    (Atom.make (Symbol.make rel ~arity:(List.length args)) args, p)

  let dec_term_group s pos =
    expect s pos '(';
    let rec go acc p =
      if p >= String.length s then err "unterminated term group"
      else if s.[p] = ')' then (List.rev acc, p + 1)
      else
        let t, p = dec_term s p in
        go (t :: acc) p
    in
    go [] (pos + 1)

  let dec_atom_group s pos =
    expect s pos '(';
    let rec go acc p =
      if p >= String.length s then err "unterminated atom group"
      else if s.[p] = ')' then (List.rev acc, p + 1)
      else
        let a, p = dec_atom s p in
        go (a :: acc) p
    in
    go [] (pos + 1)

  let enc_term_group b ts =
    Buffer.add_char b '(';
    List.iter (enc_term b) ts;
    Buffer.add_char b ')'

  let enc_atom_group b atoms =
    Buffer.add_char b '(';
    List.iter (enc_atom b) atoms;
    Buffer.add_char b ')'

  let finish what s (v, p) =
    if p <> String.length s then err "trailing bytes after %s" what;
    v

  let to_string enc v =
    let b = Buffer.create 64 in
    enc b v;
    Buffer.contents b

  let term_to_string t = to_string enc_term t
  let term_of_string s = finish "term" s (dec_term s 0)
  let atom_to_string a = to_string enc_atom a
  let atom_of_string s = finish "atom" s (dec_atom s 0)

  (* CQs: C(<free>)(<atoms>) — validated by Cq.make on decode. *)

  let cq_to_string q =
    let b = Buffer.create 128 in
    Buffer.add_char b 'C';
    enc_term_group b (Cq.free q);
    enc_atom_group b (Cq.atoms q);
    Buffer.contents b

  let cq_of_string s =
    expect s 0 'C';
    let free, p = dec_term_group s 1 in
    let atoms, p = dec_atom_group s p in
    if p <> String.length s then err "trailing bytes after cq";
    try Cq.make ~free atoms
    with Invalid_argument m -> err "invalid cq in snapshot: %s" m

  (* Mappings: M(<var><image><var><image>...). *)

  let mapping_to_string (m : Homomorphism.mapping) =
    let b = Buffer.create 128 in
    Buffer.add_char b 'M';
    Buffer.add_char b '(';
    Term.Map.iter
      (fun v t ->
        enc_term b v;
        enc_term b t)
      m;
    Buffer.add_char b ')';
    Buffer.contents b

  let mapping_of_string s =
    expect s 0 'M';
    expect s 1 '(';
    let n = String.length s in
    let rec go acc p =
      if p >= n then err "unterminated mapping"
      else if s.[p] = ')' then (acc, p + 1)
      else
        let v, p = dec_term s p in
        let t, p = dec_term s p in
        go (Term.Map.add v t acc) p
    in
    let m, p = go Term.Map.empty 2 in
    if p <> n then err "trailing bytes after mapping";
    m

  (* Rules: G<ns-name>(<body>)(<dom-vars>)(<head>) — Tgd.make rebuilds
     the Skolemized head from the head isomorphism type (Definition 4),
     so the decoded rule fires the very same Skolem terms. *)

  let rule_to_string r =
    let b = Buffer.create 256 in
    Buffer.add_char b 'G';
    ns b (Tgd.name r);
    enc_atom_group b (Tgd.body r);
    enc_term_group b (Tgd.dom_vars r);
    enc_atom_group b (Tgd.head r);
    Buffer.contents b

  let rule_of_string s =
    expect s 0 'G';
    let name, p = take_ns s 1 in
    let body, p = dec_atom_group s p in
    let dom_vars, p = dec_term_group s p in
    let head, p = dec_atom_group s p in
    if p <> String.length s then err "trailing bytes after rule";
    try Tgd.make ~name ~dom_vars ~body ~head ()
    with Invalid_argument m -> err "invalid rule in snapshot: %s" m

  (* Theories: first line the name (one field), then one rule per line. *)

  let theory_to_lines thy =
    concat [ Theory.name thy ] :: List.map rule_to_string (Theory.rules thy)

  let theory_of_lines = function
    | [] -> err "empty theory section"
    | name_l :: rule_ls ->
        let name =
          match fields name_l with
          | [ n ] -> n
          | _ -> err "bad theory name line"
        in
        Theory.make ~name (List.map rule_of_string rule_ls)
end

(* ------------------------------------------------------------------ *)
(* Atomic writes for plain files                                       *)
(* ------------------------------------------------------------------ *)

module Atomic_io = struct
  let write_file path contents =
    let dir = Filename.dirname path in
    let tmp =
      Filename.temp_file ~temp_dir:dir
        ("." ^ Filename.basename path ^ "-")
        ".tmp"
    in
    try
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc contents;
          flush oc;
          Unix.fsync (Unix.descr_of_out_channel oc));
      Sys.rename tmp path
    with e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e
end
