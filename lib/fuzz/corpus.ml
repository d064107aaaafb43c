(* On-disk corpus: content-fingerprinted program files (first-writer-
   wins, like [Cwsp_core.Store]'s content-addressed entries) plus a
   JSON resumable state file per shard. *)

open Cwsp_ir

(* FNV-1a over the printed program, with the offset basis and every
   round folded to 60 bits so the hex form is stable across platforms
   (OCaml ints are 63-bit). *)
let fingerprint (p : Prog.t) =
  let s = Pp.program_str p in
  let h = ref (0xcbf29ce484222325L |> Int64.to_int |> ( land ) 0xfffffffffffffff) in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3 land 0xfffffffffffffff)
    s;
  Printf.sprintf "%015x" !h

type t = { root : string }

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let open_dir root =
  ensure_dir root;
  ensure_dir (Filename.concat root "corpus");
  ensure_dir (Filename.concat root "findings");
  { root }

let dir t = t.root

let write_atomic path content =
  let tmp = path ^ ".tmp." ^ string_of_int (Unix.getpid ()) in
  let oc = open_out tmp in
  output_string oc content;
  close_out oc;
  Sys.rename tmp path

(* First-writer-wins: identical content maps to an identical path, so
   an existing file is already the right bytes. *)
let save_in t sub (p : Prog.t) =
  let fp = fingerprint p in
  let path = Filename.concat (Filename.concat t.root sub) (fp ^ ".ir") in
  if not (Sys.file_exists path) then write_atomic path (Pp.program_str p);
  fp

let save_program t p = save_in t "corpus" p
let save_finding t p = save_in t "findings" p

(* The finding's forensic flight dump rides next to its .ir under the
   same fingerprint; deterministic content, so first-writer-wins too. *)
let save_flight t ~fp dump =
  let path = Filename.concat (Filename.concat t.root "findings") (fp ^ ".flight") in
  if not (Sys.file_exists path) then write_atomic path dump

let load_program t fp =
  let path = Filename.concat (Filename.concat t.root "corpus") (fp ^ ".ir") in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    match Parse.program s with
    | p -> if Validate.check p = [] then Some p else None
    | exception _ -> None
  end

(* ---- campaign state ---- *)

type saved_finding = {
  sf_key : string;
  sf_kind : string;
  sf_fp : string;
  sf_instrs : int;
  sf_detail : string;
}

type state = {
  mutable s_master_seed : int;
  mutable s_shard : int * int;
  mutable s_batch : int;
  mutable s_next_batch : int;
  mutable s_execs : int;
  mutable s_discards : int;
  mutable s_retained : (string * Coverage.origin) list;
  s_cov : Coverage.t;
  mutable s_findings : saved_finding list;
}

let fresh_state ~master_seed ~shard ~batch =
  {
    s_master_seed = master_seed;
    s_shard = shard;
    s_batch = batch;
    s_next_batch = 0;
    s_execs = 0;
    s_discards = 0;
    s_retained = [];
    s_cov = Coverage.create ();
    s_findings = [];
  }

let origin_tag = function Coverage.Gen -> "g" | Coverage.Mut -> "m"

let origin_of_tag = function
  | "g" -> Coverage.Gen
  | "m" -> Coverage.Mut
  | o -> failwith ("unknown origin " ^ o)

let state_path t (i, n) =
  Filename.concat t.root (Printf.sprintf "state-%dof%d" i n)

let state_format = "cwsp-fuzz-state 2"

let save_state t (st : state) =
  let open Cwsp_util.Json in
  let tagged (s, o) = List [ Str s; Str (origin_tag o) ] in
  let finding f =
    Obj
      [ ("key", Str f.sf_key); ("kind", Str f.sf_kind); ("fp", Str f.sf_fp);
        ("instrs", int f.sf_instrs); ("detail", Str f.sf_detail) ]
  in
  Obj
    [
      ("format", Str state_format);
      ("master_seed", int st.s_master_seed);
      ("shard", List [ int (fst st.s_shard); int (snd st.s_shard) ]);
      ("batch", int st.s_batch);
      ("next_batch", int st.s_next_batch);
      ("execs", int st.s_execs);
      ("discards", int st.s_discards);
      ("retained", List (List.map tagged st.s_retained));
      ("cells", List (List.map tagged (Coverage.to_list st.s_cov)));
      ("findings", List (List.map finding st.s_findings));
    ]
  |> to_string
  |> write_atomic (state_path t st.s_shard)

(* Any missing or mistyped field, like a missing or unparsable file,
   loads as [None]. *)
let load_state t ~master_seed ~shard ~batch : state option =
  let open Cwsp_util.Json in
  let field k j = Option.get (member k j) in
  let int_of j = Option.get (to_int_opt j) in
  let str_of j = Option.get (to_string_opt j) in
  let int_at k j = int_of (field k j) in
  let str_at k j = str_of (field k j) in
  let tagged j =
    match to_list j with
    | [ s; o ] -> (str_of s, origin_of_tag (str_of o))
    | _ -> failwith "not a tagged pair"
  in
  let finding j =
    { sf_key = str_at "key" j; sf_kind = str_at "kind" j; sf_fp = str_at "fp" j;
      sf_instrs = int_at "instrs" j; sf_detail = str_at "detail" j }
  in
  try
    let j = of_file (state_path t shard) in
    if
      str_at "format" j = state_format
      && int_at "master_seed" j = master_seed
      && List.map int_of (to_list (field "shard" j)) = [ fst shard; snd shard ]
      && int_at "batch" j = batch
    then
      Some
        {
          s_master_seed = master_seed;
          s_shard = shard;
          s_batch = batch;
          s_next_batch = int_at "next_batch" j;
          s_execs = int_at "execs" j;
          s_discards = int_at "discards" j;
          s_retained = List.map tagged (to_list (field "retained" j));
          s_cov = Coverage.of_list (List.map tagged (to_list (field "cells" j)));
          s_findings = List.map finding (to_list (field "findings" j));
        }
    else None
  with _ -> None
