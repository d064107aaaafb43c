(* Batch-round campaign driver. Determinism contract: every exec index
   draws from [Rng.stream master index], items are built from the corpus
   as of their batch start, evaluation fans out on the domain pool, and
   the merge is sequential in index order — so the report depends only
   on (master seed, shard, batch size, exec budget), never on [jobs] or
   wall-clock, and a kill + resume replays to identical bytes. *)

open Cwsp_ir
module Obs = Cwsp_obs.Obs
module Executor = Cwsp_core.Executor
module Rng = Cwsp_util.Rng

type params = {
  p_dir : string;
  p_master_seed : int;
  p_shard : int * int;
  p_batch : int;
  p_jobs : int;
  p_min_budget : int;
}

let default_params ~dir =
  {
    p_dir = dir;
    p_master_seed = 1;
    p_shard = (0, 1);
    p_batch = 64;
    p_jobs = 1;
    p_min_budget = 3000;
  }

type outcome = {
  o_execs : int;
  o_discards : int;
  o_corpus : int;
  o_cells : int;
  o_new_cells : int;
  o_findings : int;
  o_fatal : bool;
  o_report : string;
}

let c_execs = Obs.Counter.make "fuzz.execs"
let c_discards = Obs.Counter.make "fuzz.discards"
let c_retained = Obs.Counter.make "fuzz.retained"
let c_findings = Obs.Counter.make "fuzz.findings"
let h_batch_us = Obs.Hist.make "fuzz.batch_us"

(* Mutation rng and oracle rng stream off disjoint index spaces so a
   mutator tweak never shifts the oracle's crash-point jitter. *)
let oracle_stream_base = 0x4000_0000

(* ---- item construction ---- *)

let fresh_program rng =
  let seed = 1 + Rng.int rng 0x3fff_ffff in
  if Rng.int rng 5 = 0 then fst (Gen.gen_spmd_program seed)
  else Gen.gen_program seed

(* One exec's input: a fresh generator program when the corpus is empty
   or on a 1-in-4 draw, otherwise 1-3 stacked mutations of a corpus pick
   (donor: another corpus pick, or a fresh program). *)
let build_item ~master ~corpus j : Coverage.origin * Prog.t =
  let rng = Rng.stream master j in
  let ncorp = Array.length corpus in
  if ncorp = 0 || Rng.int rng 4 = 0 then (Coverage.Gen, fresh_program rng)
  else begin
    let base = corpus.(Rng.int rng ncorp) in
    let donor =
      if ncorp > 1 && Rng.bool rng then corpus.(Rng.int rng ncorp)
      else fresh_program rng
    in
    let stack = 1 + Rng.int rng 3 in
    let applied = ref false in
    let prog = ref base in
    for _ = 1 to stack do
      match Mutate.mutate rng ~donor !prog with
      | Some (_, p') ->
        applied := true;
        prog := p'
      | None -> ()
    done;
    if !applied then (Coverage.Mut, !prog) else (Coverage.Gen, fresh_program rng)
  end

(* ---- report ---- *)

let is_fatal_state (st : Corpus.state) =
  List.exists
    (fun (f : Corpus.saved_finding) ->
      f.sf_kind = Oracle.kind_name Oracle.Verifier_escape)
    st.s_findings

(* Deterministic: no timestamps, findings in discovery order, cells
   sorted. Byte-identical across [--jobs] widths and kill/resume. The
   spaced layout is pinned by the benchmark's expected digests. *)
let report_json (st : Corpus.state) =
  let quote = Cwsp_util.Json.quote in
  let b = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"master_seed\": %d,\n" st.s_master_seed;
  add "  \"shard\": %s,\n"
    (quote (Printf.sprintf "%d/%d" (fst st.s_shard) (snd st.s_shard)));
  add "  \"batch\": %d,\n" st.s_batch;
  add "  \"batches_done\": %d,\n" st.s_next_batch;
  add "  \"execs\": %d,\n" st.s_execs;
  add "  \"discards\": %d,\n" st.s_discards;
  add "  \"corpus\": %d,\n" (List.length st.s_retained);
  add "  \"corpus_gen\": %d,\n"
    (List.length (List.filter (fun (_, o) -> o = Coverage.Gen) st.s_retained));
  add "  \"corpus_mut\": %d,\n"
    (List.length (List.filter (fun (_, o) -> o = Coverage.Mut) st.s_retained));
  add "  \"cells_total\": %d,\n" (Coverage.count st.s_cov);
  add "  \"cells_gen\": %d,\n" (Coverage.count_origin st.s_cov Coverage.Gen);
  add "  \"cells_mut\": %d,\n" (Coverage.count_origin st.s_cov Coverage.Mut);
  add "  \"by_category\": {";
  List.iteri
    (fun i (cat, n) ->
      add "%s%s: %d" (if i = 0 then " " else ", ") (quote cat) n)
    (Coverage.by_category st.s_cov);
  add " },\n";
  add "  \"findings\": [";
  List.iteri
    (fun i (f : Corpus.saved_finding) ->
      add "%s\n    { \"key\": %s, \"kind\": %s, \"fp\": %s, \
           \"instrs\": %d, \"detail\": %s }"
        (if i = 0 then "" else ",")
        (quote f.sf_key) (quote f.sf_kind) (quote f.sf_fp) f.sf_instrs
        (quote f.sf_detail))
    (List.rev st.s_findings);
  add "%s],\n" (if st.s_findings = [] then "" else "\n  ");
  add "  \"fatal\": %b,\n" (is_fatal_state st);
  add "  \"cells\": [";
  List.iteri
    (fun i c -> add "%s\n    %s" (if i = 0 then "" else ",") (quote c))
    (Coverage.cells_sorted st.s_cov);
  add "%s]\n" (if Coverage.count st.s_cov = 0 then "" else "\n  ");
  add "}\n";
  Buffer.contents b

(* ---- the campaign loop ---- *)

let run ?(compile = Oracle.default_compile) ?max_seconds (p : params) ~execs =
  let shard_i, shard_n = p.p_shard in
  if shard_n <= 0 || shard_i < 0 || shard_i >= shard_n then
    invalid_arg "Campaign.run: shard";
  if p.p_batch <= 0 then invalid_arg "Campaign.run: batch";
  let c = Corpus.open_dir p.p_dir in
  let st =
    match
      Corpus.load_state c ~master_seed:p.p_master_seed ~shard:p.p_shard
        ~batch:p.p_batch
    with
    | Some st -> st
    | None -> Corpus.fresh_state ~master_seed:p.p_master_seed ~shard:p.p_shard ~batch:p.p_batch
  in
  let cells_before = Coverage.count st.s_cov in
  let master = Rng.create p.p_master_seed in
  (* in-memory cache of retained programs; misses reload from disk *)
  let progs : (string, Prog.t) Hashtbl.t = Hashtbl.create 64 in
  let corpus_array () =
    Array.of_list
      (List.filter_map
         (fun (fp, _) ->
           match Hashtbl.find_opt progs fp with
           | Some prog -> Some prog
           | None -> (
             match Corpus.load_program c fp with
             | Some prog ->
               Hashtbl.replace progs fp prog;
               Some prog
             | None -> None))
         st.s_retained)
  in
  let t0 = Obs.now_us () in
  let over_deadline () =
    match max_seconds with
    | None -> false
    | Some s -> (Obs.now_us () -. t0) /. 1_000_000. >= s
  in
  let nbatches = (execs + p.p_batch - 1) / p.p_batch in
  let b = ref st.s_next_batch in
  while !b < nbatches && not (over_deadline ()) do
    let bt0 = Obs.now_us () in
    (* batches are always full width — a batch's item set must not
       depend on this invocation's exec budget, or a stop at an
       unaligned budget would mark a partly-covered batch as done and
       resume past the gap (the budget rounds up to whole batches) *)
    let lo = !b * p.p_batch in
    let hi = (!b + 1) * p.p_batch in
    let idxs =
      List.filter
        (fun j -> j mod shard_n = shard_i)
        (List.init (hi - lo) (fun k -> lo + k))
    in
    let corpus = corpus_array () in
    let items =
      Array.of_list (List.map (fun j -> (j, build_item ~master ~corpus j)) idxs)
    in
    let evals =
      Executor.map_pool ~cat:"fuzz"
        ~label:(fun i -> Printf.sprintf "exec-%d" (fst items.(i)))
        ~jobs:p.p_jobs
        (fun (j, (_, prog)) ->
          Oracle.evaluate ~compile (Rng.stream master (oracle_stream_base + j)) prog)
        items
    in
    (* sequential merge, in exec-index order *)
    Array.iteri
      (fun k (_, (origin, prog)) ->
        let ev = evals.(k) in
        st.s_execs <- st.s_execs + 1;
        Obs.Counter.incr c_execs;
        (match ev.Oracle.e_discarded with
        | Some _ ->
          st.s_discards <- st.s_discards + 1;
          Obs.Counter.incr c_discards
        | None -> ());
        let fresh = Coverage.add st.s_cov ~origin ev.e_cells in
        if fresh > 0 && ev.e_discarded = None then begin
          let fp = Corpus.save_program c prog in
          if not (List.exists (fun (fp', _) -> fp' = fp) st.s_retained) then begin
            st.s_retained <- st.s_retained @ [ (fp, origin) ];
            Hashtbl.replace progs fp prog;
            Obs.Counter.incr c_retained
          end
        end;
        List.iter
          (fun (f : Oracle.finding) ->
            let key = Oracle.finding_key f in
            if
              not
                (List.exists
                   (fun (sf : Corpus.saved_finding) -> sf.sf_key = key)
                   st.s_findings)
            then begin
              let pred = Oracle.reproduces ~compile f in
              let mini =
                (* only shrink when the signature deterministically
                   reproduces on the unminimized program *)
                if try pred prog with _ -> false then
                  Minimize.minimize ~budget:p.p_min_budget ~pred prog
                else prog
              in
              let ffp = Corpus.save_finding c mini in
              (* forensic companion: replay the failing experiment with
                 the flight recorder on and ship the dump with the .ir *)
              (match Oracle.flight_dump ~compile f mini with
              | Some dump -> Corpus.save_flight c ~fp:ffp dump
              | None -> ());
              st.s_findings <-
                {
                  Corpus.sf_key = key;
                  sf_kind = Oracle.kind_name f.fk;
                  sf_fp = ffp;
                  sf_instrs = Prog.total_instr_count mini;
                  sf_detail = f.detail;
                }
                :: st.s_findings;
              Obs.Counter.incr c_findings
            end)
          ev.e_findings)
      items;
    st.s_next_batch <- !b + 1;
    Corpus.save_state c st;
    Obs.Hist.add h_batch_us (Obs.now_us () -. bt0);
    incr b
  done;
  {
    o_execs = st.s_execs;
    o_discards = st.s_discards;
    o_corpus = List.length st.s_retained;
    o_cells = Coverage.count st.s_cov;
    o_new_cells = Coverage.count st.s_cov - cells_before;
    o_findings = List.length st.s_findings;
    o_fatal = is_fatal_state st;
    o_report = report_json st;
  }
