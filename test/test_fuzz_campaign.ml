(* The fuzzing subsystem end to end (DESIGN.md §14):

   1. determinism: campaign coverage reports are byte-identical at
      --jobs 1 vs --jobs 4, and across a stop + resume of the same
      campaign directory;
   2. shipped compiler: a bounded campaign over the real pipeline finds
      zero oracle escapes, retains mutants, and mutation lights strictly
      more coverage than generation alone at the same exec budget;
   3. bug reinjection: three deliberately broken pipelines (dropping a
      checkpoint, a boundary, a flush from the compiled binary) are each
      caught by a small fixed-seed campaign, with an auto-minimized
      counterexample persisted under findings/ and the report pinned;
      the same bugs hidden from the verifier are caught dynamically, and
      every probed finding is minimized and ships a flight dump;
   4. minimizer corpus: five hand-written defective programs (the race
      tier's mutation corpus idioms) each shrink to <= 25 instructions
      while still reproducing their diagnostic.

   No [Verify.install_pipeline_hook] here: campaigns must be free to
   compile programs the verifier would reject — rejection IS the signal
   being measured. *)

open Cwsp_ir
module Pipeline = Cwsp_compiler.Pipeline
module Verify = Cwsp_verify.Verify
module Diag = Cwsp_verify.Diag
module Campaign = Cwsp_fuzz.Campaign
module Corpus = Cwsp_fuzz.Corpus
module Coverage = Cwsp_fuzz.Coverage
module Oracle = Cwsp_fuzz.Oracle
module Minimize = Cwsp_fuzz.Minimize
module Recorder = Cwsp_flight.Recorder
module Postmortem = Cwsp_flight.Postmortem

(* ---- scratch campaign directories ---- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let scratch tag =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cwsp-fuzz-test-%d-%s" (Unix.getpid ()) tag)
  in
  rm_rf dir;
  dir

let params ?(jobs = 1) dir =
  { (Campaign.default_params ~dir) with p_master_seed = 97; p_batch = 40;
    p_jobs = jobs; p_min_budget = 600 }

(* The state file round-trips every field, odd bytes in its strings
   included, and loads as [None] when it is missing, malformed or written
   for another master seed, shard or batch. *)
let test_state_file () =
  let d = scratch "state" in
  let c = Corpus.open_dir d in
  let load ?(master_seed = 5) ?(shard = (1, 3)) ?(batch = 8) () =
    Corpus.load_state c ~master_seed ~shard ~batch
  in
  Alcotest.(check bool) "missing" true (load () = None);
  let st = Corpus.fresh_state ~master_seed:5 ~shard:(1, 3) ~batch:8 in
  st.s_next_batch <- 4;
  st.s_execs <- 32;
  st.s_discards <- 3;
  st.s_retained <- [ ("00ab", Coverage.Gen); ("0cd", Coverage.Mut) ];
  ignore (Coverage.add st.s_cov ~origin:Gen [ "op:load"; "odd \"cell\"\n\001\255 %" ]);
  ignore (Coverage.add st.s_cov ~origin:Mut [ "op:store" ]);
  st.s_findings <-
    [ { sf_key = "k 1"; sf_kind = "verifier-escape"; sf_fp = "00ab"; sf_instrs = 12;
        sf_detail = "a b\nc" };
      { sf_key = "k2"; sf_kind = "fault-escape"; sf_fp = "0cd"; sf_instrs = 9;
        sf_detail = "" } ];
  Corpus.save_state c st;
  (match load () with
  | None -> Alcotest.fail "saved state unreadable"
  | Some l ->
    Alcotest.(check (list int)) "counters"
      [ st.s_next_batch; st.s_execs; st.s_discards ]
      [ l.s_next_batch; l.s_execs; l.s_discards ];
    Alcotest.(check bool) "retained" true (l.s_retained = st.s_retained);
    Alcotest.(check bool) "cells" true
      (Coverage.to_list l.s_cov = Coverage.to_list st.s_cov);
    Alcotest.(check bool) "findings" true (l.s_findings = st.s_findings));
  Alcotest.(check bool) "other master seed" true (load ~master_seed:6 () = None);
  Alcotest.(check bool) "other shard" true (load ~shard:(2, 3) () = None);
  Alcotest.(check bool) "other batch" true (load ~batch:9 () = None);
  let path = Filename.concat d "state-1of3" in
  let body = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.sub body 0 (String.length body / 2)));
  Alcotest.(check bool) "malformed" true (load () = None);
  rm_rf d

(* ---- 1. determinism ---- *)

let test_jobs_identical () =
  let d1 = scratch "jobs1" and d4 = scratch "jobs4" in
  let o1 = Campaign.run (params ~jobs:1 d1) ~execs:120 in
  let o4 = Campaign.run (params ~jobs:4 d4) ~execs:120 in
  if o1.o_report <> o4.o_report then
    Alcotest.fail "coverage reports differ between --jobs 1 and --jobs 4";
  Alcotest.(check string) "report bytes pinned" "18eab3fba36e621fb421dcecd552ec9e"
    (Digest.to_hex (Digest.string o1.o_report));
  rm_rf d1;
  rm_rf d4

let test_resume_identical () =
  let dfull = scratch "full" and dresume = scratch "resume" in
  let ofull = Campaign.run (params dfull) ~execs:120 in
  (* stop after the first half of the exec budget, then relaunch: the
     resumed campaign must replay onto the exact same report *)
  let _ = Campaign.run (params dresume) ~execs:60 in
  let ores = Campaign.run (params dresume) ~execs:120 in
  if ofull.o_report <> ores.o_report then
    Alcotest.fail "coverage report after stop+resume differs from one run";
  rm_rf dfull;
  rm_rf dresume

(* ---- 2. the shipped compiler survives a campaign ---- *)

let test_shipped_compiler_clean () =
  let d = scratch "shipped" in
  let o = Campaign.run (params d) ~execs:200 in
  if o.o_findings > 0 then
    Alcotest.failf "shipped compiler: %d findings (first one is in %s)"
      o.o_findings
      (Filename.concat d "findings");
  if o.o_fatal then Alcotest.fail "shipped compiler: verifier escape";
  if o.o_corpus = 0 then Alcotest.fail "campaign retained nothing";
  rm_rf d

(* Mutation must buy coverage over generation alone: the same oracle on
   the same number of pure generator programs lights strictly fewer
   cells than the campaign's generate-and-mutate loop. *)
let test_mutation_buys_coverage () =
  let execs = 200 in
  let d = scratch "mutbuy" in
  let o = Campaign.run (params d) ~execs in
  rm_rf d;
  let gen_cov = Coverage.create () in
  let master = Cwsp_util.Rng.create 97 in
  for j = 0 to execs - 1 do
    let rng = Cwsp_util.Rng.stream master j in
    let seed = 1 + Cwsp_util.Rng.int rng 0x3fff_ffff in
    let ev = Oracle.evaluate (Cwsp_util.Rng.stream master (j + 1000))
        (Cwsp_fuzz.Gen.gen_program seed) in
    ignore (Coverage.add gen_cov ~origin:Coverage.Gen ev.e_cells)
  done;
  let gen_cells = Coverage.count gen_cov in
  if o.o_cells <= gen_cells then
    Alcotest.failf
      "mutation bought nothing: campaign %d cells vs %d generation-only"
      o.o_cells gen_cells

(* ---- 3. bug reinjection ---- *)

(* Drop the first instruction matching [pred] from the compiled binary,
   leaving the metadata (slices, boundary table) claiming otherwise —
   the shape of a real emission bug. *)
let drop_first pred (compiled : Pipeline.compiled) : Pipeline.compiled =
  let dropped = ref false in
  let funcs =
    List.map
      (fun (name, (fn : Prog.func)) ->
        let blocks =
          Array.map
            (fun (b : Prog.block) ->
              {
                b with
                instrs =
                  List.filter
                    (fun i ->
                      if (not !dropped) && pred i then begin
                        dropped := true;
                        false
                      end
                      else true)
                    b.instrs;
              })
            fn.blocks
        in
        (name, { fn with blocks }))
      compiled.prog.funcs
  in
  { compiled with prog = { compiled.prog with funcs } }

(* [digest] pins the report: every finding of these campaigns is static,
   so the bytes hold the static path unchanged. *)
let reinject tag ~digest pred =
  let compile config prog = drop_first pred (Pipeline.compile ~config prog) in
  let d = scratch ("inject-" ^ tag) in
  let o = Campaign.run ~compile (params d) ~execs:100 in
  if o.o_findings = 0 then
    Alcotest.failf "injected %s bug survived 100 execs undetected" tag;
  Alcotest.(check string) "report bytes pinned" digest
    (Digest.to_hex (Digest.string o.o_report));
  (* the counterexample is persisted, minimized, and reloadable *)
  let c = Corpus.open_dir d in
  (match Corpus.load_state c ~master_seed:97 ~shard:(0, 1) ~batch:40 with
  | None -> Alcotest.fail "campaign state unreadable"
  | Some st ->
    List.iter
      (fun (f : Corpus.saved_finding) ->
        let path = Filename.concat (Filename.concat d "findings") (f.sf_fp ^ ".ir") in
        if not (Sys.file_exists path) then
          Alcotest.failf "finding %s: no persisted counterexample" f.sf_key;
        if f.sf_instrs > 60 then
          Alcotest.failf "finding %s: counterexample not minimized (%d instrs)"
            f.sf_key f.sf_instrs)
      st.s_findings);
  rm_rf d

let test_reinject_drop_ckpt () =
  reinject "ckpt" ~digest:"dbc0356d65c2444cad78b8fcb80e6ff4" (function
    | Types.Ckpt _ -> true
    | _ -> false)

let test_reinject_drop_boundary () =
  reinject "boundary" ~digest:"d45229baf8cf50d8fd41e1c80289cb9e" (function
    | Types.Boundary _ -> true
    | _ -> false)

let test_reinject_drop_flush () =
  reinject "flush" ~digest:"e571e74278ce5420fcba9588b589886c" (function
    | Types.Flush _ -> true
    | _ -> false)

(* A bug the verifier cannot see: the binary is relabelled as a
   non-region, implicit-mode compile, so the tiers that would catch the
   dropped instruction (ids, idem, ckpt, semantic, persist) never arm
   and only the dynamic stages can. Each probed finding — a fault
   escape, or a crash/explicit-stage verifier escape — must end
   minimized below the program that was flagged (the same campaign at
   minimizer budget 0) and ship a flight dump; a crash-stage dump must
   record the blind plan that stage ran, so no ladder rung. *)
let hide (compiled : Pipeline.compiled) : Pipeline.compiled =
  {
    compiled with
    cconfig =
      {
        compiled.cconfig with
        region_formation = false;
        persist_mode = Pipeline.Implicit;
      };
  }

let saved_findings d =
  match
    Corpus.load_state (Corpus.open_dir d) ~master_seed:97 ~shard:(0, 1) ~batch:40
  with
  | None -> Alcotest.fail "campaign state unreadable"
  | Some st -> List.rev st.s_findings

let detail_starts p (f : Corpus.saved_finding) =
  String.starts_with ~prefix:p f.sf_detail

let rung_recorded path =
  match Recorder.load_dump path with
  | None -> Alcotest.failf "%s: unreadable flight dump" path
  | Some mem ->
    List.exists
      (fun (r : Postmortem.record) -> r.r_kind = Some Recorder.Rung)
      (Postmortem.audit mem).a_records

let hidden tag pred =
  let compile config prog =
    hide (drop_first pred (Pipeline.compile ~config prog))
  in
  let campaign budget =
    let d = scratch (Printf.sprintf "hidden-%s-%d" tag budget) in
    ignore
      (Campaign.run ~compile { (params d) with p_min_budget = budget } ~execs:100);
    d
  in
  let dfull = campaign 0 and dmin = campaign 600 in
  let full = saved_findings dfull in
  let probed =
    List.filter
      (fun (f : Corpus.saved_finding) ->
        f.sf_kind = "fault-escape" || detail_starts "crash @" f
        || detail_starts "explicit @" f)
      (saved_findings dmin)
  in
  if probed = [] then Alcotest.failf "hidden %s bug: no probed finding" tag;
  List.iter
    (fun (f : Corpus.saved_finding) ->
      let u =
        List.find (fun (u : Corpus.saved_finding) -> u.sf_key = f.sf_key) full
      in
      if f.sf_instrs >= u.sf_instrs then
        Alcotest.failf "%s: not minimized (%d instrs)" f.sf_key f.sf_instrs;
      let path =
        Filename.concat (Filename.concat dmin "findings") (f.sf_fp ^ ".flight")
      in
      if not (Sys.file_exists path) then
        Alcotest.failf "%s: no flight dump" f.sf_key;
      if detail_starts "crash @" f && rung_recorded path then
        Alcotest.failf "%s: crash-stage dump replays the hardened ladder" f.sf_key)
    probed;
  rm_rf dfull;
  rm_rf dmin

let test_hidden_drop_ckpt () =
  hidden "ckpt" (function Types.Ckpt _ -> true | _ -> false)

let test_hidden_drop_flush () =
  hidden "flush" (function Types.Flush _ -> true | _ -> false)

(* ---- 4. minimizer corpus ---- *)

(* Five defective programs over the race tier's corpus idioms (a striped
   loop, an inline CAS lock, an atomic accumulator), one defect each. *)
type mutant =
  | Drop_acquire
  | Widen_stride
  | Drop_release
  | Plain_accum
  | Private_atomic

let mutant_name = function
  | Drop_acquire -> "drop-acquire"
  | Widen_stride -> "widen-stride"
  | Drop_release -> "drop-release"
  | Plain_accum -> "plain-accum"
  | Private_atomic -> "private-atomic"

let intended_rule = function
  | Drop_acquire -> Diag.Unlocked_shared_write
  | Widen_stride -> Diag.Tid_overlap_unprovable
  | Drop_release -> Diag.Data_race
  | Plain_accum -> Diag.Data_race
  | Private_atomic -> Diag.Redundant_atomic

let mutant_prog (m : mutant) : Prog.t =
  let open Builder in
  let b = Builder.program () in
  Builder.global b "mstriped" ~size:(4 * 32 * 8) ();
  Builder.global b "mshared" ~size:(32 * 8) ();
  Builder.global b "mlock" ~size:8 ();
  Builder.global b "macc" ~size:8 ();
  Builder.func b "worker" ~nparams:1 (fun fb ->
      let tid = param fb 0 in
      let striped = la fb "mstriped" in
      let shared = la fb "mshared" in
      let lock = la fb "mlock" in
      let accw = la fb "macc" in
      let mybase =
        bin fb Add (Reg striped) (Reg (bin fb Mul (Reg tid) (Imm (32 * 8))))
      in
      (* striped private traffic; Widen_stride reaches the next stripe,
         Private_atomic needlessly makes the private update atomic *)
      let _ =
        loop fb ~from:(Imm 0) ~below:(Imm 48) (fun j ->
            let mask = match m with Widen_stride -> 63 | _ -> 31 in
            let idx = bin fb And (Reg j) (Imm mask) in
            let slot = bin fb Add (Reg mybase) (Reg (bin fb Shl (Reg idx) (Imm 3))) in
            match m with
            | Private_atomic -> ignore (atomic_rmw fb Types.Add slot 0 (Imm 1))
            | _ ->
              let v = load fb slot 0 in
              store fb slot 0 (Reg (bin fb Add (Reg v) (Imm 1))))
      in
      (* critical sections under an inline CAS-acquire / TSO-release
         lock; Drop_acquire removes the CAS, Drop_release the unlock *)
      let _ =
        loop fb ~from:(Imm 0) ~below:(Imm 16) (fun j ->
            (match m with
            | Drop_acquire -> ()
            | _ ->
              let head = block fb in
              let cont = block fb in
              jmp fb head;
              switch_to fb head;
              let old = cas fb lock 0 ~expected:(Imm 0) ~desired:(Imm 1) in
              let got = cmp fb Eq (Reg old) (Imm 0) in
              br fb got ~ifso:cont ~ifnot:head;
              switch_to fb cont);
            let sidx = bin fb And (Reg (bin fb Add (Reg j) (Reg tid))) (Imm 31) in
            let sslot = bin fb Add (Reg shared) (Reg (bin fb Shl (Reg sidx) (Imm 3))) in
            let sv = load fb sslot 0 in
            store fb sslot 0 (Reg (bin fb Add (Reg sv) (Imm 1)));
            (match m with
            | Plain_accum ->
              let av = load fb accw 0 in
              store fb accw 0 (Reg (bin fb Add (Reg av) (Reg sv)))
            | _ -> ());
            (match m with
            | Drop_release -> ()
            | _ -> store fb lock 0 (Imm 0)))
      in
      (* shared atomic accumulator traffic *)
      let _ =
        loop fb ~from:(Imm 0) ~below:(Imm 16) (fun j ->
            ignore (atomic_rmw fb Types.Add accw 0 (Reg j)))
      in
      ret fb None);
  Builder.func b "main" ~nparams:0 (fun fb ->
      call_void fb "worker" [ Imm 0 ];
      ret fb None);
  Builder.set_main b "main";
  Builder.finish b

let rule_fires rule prog =
  match Pipeline.compile ~config:Pipeline.cwsp prog with
  | exception _ -> false
  | compiled ->
    List.exists
      (fun (d : Diag.t) -> d.rule = rule)
      (Verify.normalize (Verify.run compiled))

let test_minimizer_corpus () =
  List.iter
    (fun m ->
      let rule = intended_rule m in
      let prog = mutant_prog m in
      if not (rule_fires rule prog) then
        Alcotest.failf "%s: intended rule does not fire before minimization"
          (mutant_name m);
      let mini = Minimize.minimize ~budget:1500 ~pred:(rule_fires rule) prog in
      let n = Prog.total_instr_count mini in
      if n > 25 then
        Alcotest.failf "%s: minimized to %d instructions (> 25)" (mutant_name m) n;
      if not (rule_fires rule mini) then
        Alcotest.failf "%s: minimized program lost its diagnostic" (mutant_name m))
    [ Drop_acquire; Widen_stride; Drop_release; Plain_accum; Private_atomic ]

(* ---- 4. wild SPMD workers ---- *)

(* Minimized from fuzz master 17, exec 280: [main] is empty, so the
   baseline screen never sees the worker, whose tid-striped store lands
   on a misaligned address. The oracle used to die inside the race
   monitor with [Invalid_argument "Memory: unaligned address ..."]; the
   monitor now runs under the same screen and files a cell. *)
let wild_worker =
  {|global @sp_arr : 256 bytes
main = main

func worker(1 params, 4 regs):
.b0:
  r1 = la @sp_arr
  r2 = shl r0, 6
  r3 = add r1, r2
  store [r3 + 4], r0
  ret

func main(0 params, 0 regs):
.b0:
  ret
|}

let test_wild_worker () =
  let prog = Parse.program wild_worker in
  let ev = Oracle.evaluate (Cwsp_util.Rng.create 1) prog in
  Alcotest.(check bool) "monitor:wild cell" true
    (List.mem "monitor:wild" ev.e_cells);
  Alcotest.(check int) "not a finding" 0 (List.length ev.e_findings);
  Alcotest.(check bool) "not a monitor reproduction" false
    (Oracle.reproduces
       { fk = Oracle.Verifier_escape; detail = "monitor"; probe = None }
       prog)

let () =
  Alcotest.run "fuzz-campaign"
    [
      ( "campaign",
        [
          Alcotest.test_case "reports byte-identical: jobs 1 vs 4" `Slow
            test_jobs_identical;
          Alcotest.test_case "reports byte-identical: stop + resume" `Slow
            test_resume_identical;
          Alcotest.test_case "shipped compiler: zero findings" `Slow
            test_shipped_compiler_clean;
          Alcotest.test_case "mutation buys coverage over generation" `Slow
            test_mutation_buys_coverage;
          Alcotest.test_case "reinjected bug caught: dropped checkpoint" `Slow
            test_reinject_drop_ckpt;
          Alcotest.test_case "reinjected bug caught: dropped boundary" `Slow
            test_reinject_drop_boundary;
          Alcotest.test_case "reinjected bug caught: dropped flush" `Slow
            test_reinject_drop_flush;
          Alcotest.test_case "minimizer corpus: 5 mutants to <= 25 instrs" `Quick
            test_minimizer_corpus;
          Alcotest.test_case "wild SPMD worker is a cell, not a crash" `Quick
            test_wild_worker;
          Alcotest.test_case "verifier-hidden bug: dropped checkpoint" `Slow
            test_hidden_drop_ckpt;
          Alcotest.test_case "verifier-hidden bug: dropped flush" `Slow
            test_hidden_drop_flush;
          Alcotest.test_case "state file round-trips" `Quick test_state_file;
        ] );
    ]
