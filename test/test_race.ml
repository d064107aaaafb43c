(* The SPMD race verifier (DESIGN.md §13) end to end:

   1. registry sweep: every parallel workload × every instrumented
      config — DRF workloads certify with zero race findings, the
      deliberately racy one is rejected;
   2. mutation corpus: four hand-written mutants of one DRF base, each
      caught by exactly the intended static rule AND shown to misbehave
      (race or hang) under the dynamic monitor — the static tier and
      the dynamic oracle corroborate each other;
   3. tid-affine unit tests: the stride/range disjointness verdicts the
      tier's lock-free half rests on;
   4. the redundant-atomic lint;
   5. quantum regression: [Multi.create ?quantum] actually changes the
      interleaving, DRF results don't care, racy results do;
   6. fuzz soundness hammer: generated SPMD programs — a certificate
      implies a clean monitor sweep, a planted defect implies a static
      rejection;
   7. parallel verify sweep is byte-identical across executor widths. *)

open Cwsp_ir
module Fuzz_gen = Cwsp_fuzz.Gen
module Race_monitor = Cwsp_fuzz.Race_monitor
open Cwsp_interp
module Ta = Cwsp_analysis.Tid_affine
module Race = Cwsp_analysis.Race
module Verify = Cwsp_verify.Verify
module Diag = Cwsp_verify.Diag
module Pipeline = Cwsp_compiler.Pipeline
module W = Cwsp_workloads.W_parallel

let configs = Pipeline.[ cwsp; cwsp_no_prune; regions_only ]

let is_race_rule (d : Diag.t) =
  match d.rule with
  | Diag.Data_race | Diag.Unlocked_shared_write | Diag.Tid_overlap_unprovable
  | Diag.Redundant_atomic ->
    true
  | _ -> false

let race_diags prog_compiled =
  List.filter is_race_rule Verify.(normalize (run prog_compiled))

(* ---- 1. registry sweep ---- *)

let test_registry_sweep () =
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun config ->
          let compiled = Pipeline.compile ~config (w.pbuild ~scale:1 ~threads:4) in
          let rd = race_diags compiled in
          let label =
            Printf.sprintf "%s/%s" w.pname (Pipeline.config_name config)
          in
          if w.expect_racy then begin
            if not (List.exists Diag.is_error rd) then
              Alcotest.failf "%s: expected a race rejection, got none" label;
            List.iter
              (fun (d : Diag.t) ->
                if d.rule <> Diag.Unlocked_shared_write then
                  Alcotest.failf "%s: unexpected rule %s" label
                    (Diag.rule_name d.rule))
              rd
          end
          else if rd <> [] then
            Alcotest.failf "%s: spurious race finding: %s" label
              (Diag.to_string (List.hd rd)))
        configs)
    W.all

(* every workload's certificate (or rejection) is corroborated by the
   dynamic monitor on executed interleavings *)
let test_registry_monitor () =
  List.iter
    (fun (w : W.t) ->
      let p = w.pbuild ~scale:1 ~threads:3 in
      let os = Race_monitor.sweep ~fuel:50_000_000 p ~threads:3 ~worker:w.worker in
      if w.expect_racy then begin
        if Race_monitor.all_clean os then
          Alcotest.failf "%s: expected a dynamic race, all runs clean" w.pname
      end
      else if not (Race_monitor.all_clean os) then
        Alcotest.failf "%s: dynamic race/hang on a certified workload" w.pname)
    W.all

(* ---- 2. mutation corpus ---- *)

type mutant = Base | Drop_acquire | Widen_stride | Drop_release | Plain_accum

let mutant_name = function
  | Base -> "base"
  | Drop_acquire -> "drop-acquire"
  | Widen_stride -> "widen-stride"
  | Drop_release -> "drop-release"
  | Plain_accum -> "plain-accum"

(* One DRF worker exercising all three certified idioms in three
   phases — a lock-free tid-striped loop, an inline CAS/TSO-release
   critical-section loop, an atomic-accumulator loop — with one idiom
   broken per mutant. The phases are deliberately sync-free relative to
   each other where possible, so a planted race is not accidentally
   ordered (and masked) by the lock's happens-before edges. *)
let corpus_prog (m : mutant) : Prog.t =
  let open Builder in
  let b = Builder.program () in
  Builder.global b "cstriped" ~size:(4 * 32 * 8) ();
  Builder.global b "cshared" ~size:(32 * 8) ();
  Builder.global b "clock" ~size:8 ();
  Builder.global b "cacc" ~size:8 ();
  Builder.global b "cres" ~size:(4 * 8) ();
  Builder.func b "worker" ~nparams:1 (fun fb ->
      let tid = param fb 0 in
      let striped = la fb "cstriped" in
      let shared = la fb "cshared" in
      let lock = la fb "clock" in
      let accw = la fb "cacc" in
      let mybase =
        bin fb Add (Reg striped) (Reg (bin fb Mul (Reg tid) (Imm (32 * 8))))
      in
      (* phase A: striped private traffic, no synchronization at all;
         Widen_stride doubles the index mask, so thread t reaches into
         thread t+1's stripe *)
      let _ =
        loop fb ~from:(Imm 0) ~below:(Imm 48) (fun j ->
            let mask = match m with Widen_stride -> 63 | _ -> 31 in
            let idx = bin fb And (Reg j) (Imm mask) in
            let slot = bin fb Add (Reg mybase) (Reg (bin fb Shl (Reg idx) (Imm 3))) in
            let v = load fb slot 0 in
            store fb slot 0 (Reg (bin fb Add (Reg v) (Imm 1))))
      in
      (* phase B: critical sections on [cshared] under an inline
         CAS-acquire / TSO-release lock; Drop_acquire removes the CAS,
         Drop_release the unlock store *)
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
            (* Plain_accum: a shared accumulator downgraded from atomic
               to plain load/add/store — kept inside the section, so the
               only defect is mixed atomicity vs phase C's atomics *)
            (match m with
            | Plain_accum ->
              let av = load fb accw 0 in
              store fb accw 0 (Reg (bin fb Add (Reg av) (Reg sv)))
            | _ -> ());
            (match m with
            | Drop_release -> ()
            | _ -> store fb lock 0 (Imm 0)))
      in
      (* phase C: shared atomic accumulators — data atomics (Reg/Xor
         operand shapes), not lock operations *)
      let _ =
        loop fb ~from:(Imm 0) ~below:(Imm 16) (fun j ->
            ignore (atomic_rmw fb Types.Add accw 0 (Reg j));
            ignore (atomic_rmw fb Types.Xor accw 0 (Reg tid)))
      in
      let res = la fb "cres" in
      let rslot = bin fb Add (Reg res) (Reg (bin fb Shl (Reg tid) (Imm 3))) in
      store fb rslot 0 (Reg tid);
      ret fb None);
  Builder.func b "main" ~nparams:0 (fun fb ->
      call_void fb "worker" [ Imm 0 ];
      ret fb None);
  Builder.set_main b "main";
  Builder.finish b

let intended_rule = function
  | Base -> None
  | Drop_acquire -> Some Diag.Unlocked_shared_write
  | Widen_stride -> Some Diag.Tid_overlap_unprovable
  | Drop_release -> Some Diag.Data_race
  | Plain_accum -> Some Diag.Data_race

let test_mutants_static () =
  List.iter
    (fun m ->
      let compiled = Pipeline.compile (corpus_prog m) in
      let rd = race_diags compiled in
      let name = mutant_name m in
      match intended_rule m with
      | None ->
        if rd <> [] then
          Alcotest.failf "base: spurious finding: %s"
            (Diag.to_string (List.hd rd))
      | Some rule ->
        if not (List.exists (fun (d : Diag.t) -> d.rule = rule) rd) then
          Alcotest.failf "%s: not caught by %s (%d findings)" name
            (Diag.rule_name rule) (List.length rd);
        List.iter
          (fun (d : Diag.t) ->
            if d.rule <> rule then
              Alcotest.failf "%s: stray rule %s (wanted only %s): %s" name
                (Diag.rule_name d.rule) (Diag.rule_name rule)
                (Diag.to_string d))
          rd)
    [ Base; Drop_acquire; Widen_stride; Drop_release; Plain_accum ]

(* each mutant must also misbehave for real: the racy ones race under
   the monitor, the dropped release hangs the spinners *)
let test_mutants_dynamic () =
  let sweep m ~fuel =
    Race_monitor.sweep ~fuel (corpus_prog m) ~threads:3 ~worker:"worker"
  in
  let raced os = List.exists (fun (o : Race_monitor.outcome) -> o.races <> []) os in
  let hung os = List.exists (fun (o : Race_monitor.outcome) -> o.hung) os in
  let os = sweep Base ~fuel:10_000_000 in
  if not (Race_monitor.all_clean os) then
    Alcotest.fail "base: dynamic race/hang on the DRF corpus program";
  List.iter
    (fun m ->
      if not (raced (sweep m ~fuel:10_000_000)) then
        Alcotest.failf "%s: no dynamic race observed" (mutant_name m))
    [ Drop_acquire; Widen_stride; Plain_accum ];
  let os = sweep Drop_release ~fuel:400_000 in
  if not (hung os) then
    Alcotest.fail "drop-release: spinners should exhaust their fuel"

(* Every verdict the monitor gives, pinned: the sweep outcomes (races,
   hangs, quanta) over the mutation corpus and 30 generated SPMD
   programs, digested. A change to the executing core or to the
   monitor's event handling that moves any one verdict moves it. *)
let test_sweep_digest () =
  let progs =
    List.map corpus_prog [ Base; Drop_acquire; Widen_stride; Drop_release; Plain_accum ]
    @ List.init 30 (fun i -> fst (Fuzz_gen.gen_spmd_program (i + 1)))
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun p ->
      List.iter
        (fun (o : Race_monitor.outcome) ->
          Printf.bprintf b "q%d hung=%b" o.quantum o.hung;
          List.iter
            (fun (r : Race_monitor.race) ->
              Printf.bprintf b " 0x%x:%d/%d" r.r_addr r.r_tid r.r_prev)
            o.races;
          Buffer.add_char b '\n')
        (Race_monitor.sweep ~fuel:400_000 p ~threads:3 ~worker:"worker"))
    progs;
  Alcotest.(check string) "sweep outcome digest" "43be7f78be75fe9d54c493cc92b47b3e"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ---- 3. tid-affine disjointness ---- *)

let test_tid_affine () =
  let check = Alcotest.(check bool) in
  let pg ?(k = 0) ?(g = "g") lo hi = Ta.Pglob { g; k; lo; hi } in
  let v = Ta.cross_thread in
  (* per-thread stripes: stride 256, footprint [0,248+7] — disjoint *)
  check "stride covers footprint" true (v (pg ~k:256 0 248) (pg ~k:256 0 248) = Ta.Disjoint);
  (* widened footprint crosses into the neighbour stripe *)
  check "widened stride overlaps" true (v (pg ~k:256 0 504) (pg ~k:256 0 504) = Ta.Overlap);
  (* one shared word, all threads *)
  check "same word overlaps" true (v (pg 0 0) (pg 0 0) = Ta.Overlap);
  (* fixed word inside some thread's stripe *)
  check "fixed vs striped hit" true (v (pg 256 256) (pg ~k:256 0 0) = Ta.Overlap);
  (* fixed word between stripes' footprints *)
  check "fixed vs striped miss" true (v (pg 16 16) (pg ~k:256 0 0) = Ta.Disjoint);
  (* word-footprint adjacency: stride 8 just separates single words *)
  check "stride 8 single word" true (v (pg ~k:8 0 0) (pg ~k:8 0 0) = Ta.Disjoint);
  check "stride 8 range 8" true (v (pg ~k:8 0 8) (pg ~k:8 0 8) = Ta.Overlap);
  (* distinct globals never collide (object-bounded, as in Alias) *)
  check "different globals" true
    (v (pg ~g:"a" 0 1000) (pg ~g:"b" 0 1000) = Ta.Disjoint);
  (* mismatched strides: never claim Disjoint *)
  check "mismatched strides stay unproven" true
    (v (pg ~k:256 0 0) (pg ~k:320 0 0) <> Ta.Disjoint);
  (* unknowns *)
  check "Pany is unknown" true (v Ta.Pany (pg 0 0) = Ta.Unknown);
  check "infinite range unknown" true
    (v (pg ~k:256 0 Ta.pinf) (pg ~k:256 0 Ta.pinf) = Ta.Unknown);
  (* the analysis half: a masked, shifted, tid-scaled index resolves *)
  let p, _ = Fuzz_gen.gen_spmd_program 2 in
  let wfn = Prog.func_exn p "worker" in
  let states, _ = Ta.block_entry_states ~tid_param:0 wfn in
  check "worker entry has states" true (Array.length states > 0)

(* ---- 4. redundant-atomic lint ---- *)

let test_redundant_atomic () =
  let open Builder in
  let b = Builder.program () in
  Builder.global b "priv" ~size:(4 * 8) ();
  Builder.func b "worker" ~nparams:1 (fun fb ->
      let tid = param fb 0 in
      let g = la fb "priv" in
      let slot = bin fb Add (Reg g) (Reg (bin fb Shl (Reg tid) (Imm 3))) in
      (* an atomic on a provably thread-private word (Xor: not an
         acquire/release shape, so it stays a data access) *)
      ignore (atomic_rmw fb Types.Xor slot 0 (Imm 1));
      ret fb None);
  Builder.func b "main" ~nparams:0 (fun fb ->
      call_void fb "worker" [ Imm 0 ];
      ret fb None);
  Builder.set_main b "main";
  let p = Builder.finish b in
  let fs = Race.check p ~worker:"worker" in
  match fs with
  | [ { f_rule = Race.Rredundant_atomic; _ } ] -> ()
  | _ ->
    Alcotest.failf "expected exactly the redundant-atomic lint, got %d findings"
      (List.length fs)

(* ---- 5. quantum regression ---- *)

let test_quantum () =
  let threads = 3 in
  let final ~quantum (w : W.t) g =
    let p = w.pbuild ~scale:1 ~threads in
    let linked = Machine.link p in
    let t = Multi.create ~quantum linked ~threads ~worker:w.worker in
    Multi.run t (fun _ -> Machine.no_hooks);
    Memory.read t.mem (Hashtbl.find linked.Machine.global_addr g)
  in
  let expected = threads * 400 in
  List.iter
    (fun quantum ->
      Alcotest.(check int)
        (Printf.sprintf "pcounter quantum=%d" quantum)
        expected
        (final ~quantum W.pcounter "pcnt"))
    [ 1; 7; 32 ];
  let racy = List.map (fun q -> final ~quantum:q W.pcounter_racy "rcnt") [ 1; 7; 32 ] in
  Alcotest.(check bool) "racy counter loses updates" true
    (List.exists (fun v -> v < expected) racy);
  Alcotest.(check bool) "quantum changes the interleaving" true
    (List.length (List.sort_uniq compare racy) > 1);
  (match Multi.create ~quantum:0 (Machine.link (W.pcounter.pbuild ~scale:1 ~threads)) ~threads ~worker:"worker" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "quantum=0 must be rejected")

(* ---- 6. fuzz soundness hammer ---- *)

let test_fuzz_soundness () =
  let drf = ref 0 and racy = ref 0 in
  for seed = 1 to 40 do
    let p, kind = Fuzz_gen.gen_spmd_program seed in
    let compiled = Pipeline.compile p in
    let errs = List.filter Diag.is_error (race_diags compiled) in
    match kind with
    | `Drf ->
      incr drf;
      if errs <> [] then
        Alcotest.failf "seed %d: DRF generator shape not certified: %s" seed
          (Diag.to_string (List.hd errs));
      (* the certificate, checked on executed interleavings *)
      let os = Race_monitor.sweep ~fuel:5_000_000 p ~threads:3 ~worker:"worker" in
      if not (Race_monitor.all_clean os) then
        Alcotest.failf "seed %d: certified race-free but the monitor raced" seed
    | `Racy ->
      incr racy;
      if errs = [] then
        Alcotest.failf "seed %d: planted defect not rejected" seed
  done;
  if !drf = 0 || !racy = 0 then
    Alcotest.failf "generator imbalance: %d drf / %d racy" !drf !racy

(* ---- 7. executor-width determinism ---- *)

let test_parallel_determinism () =
  let pairs =
    Array.of_list
      (List.concat_map
         (fun (w : W.t) -> List.map (fun c -> (w, c)) configs)
         W.all)
  in
  let report (w, config) =
    let compiled = Pipeline.compile ~config (w.W.pbuild ~scale:1 ~threads:4) in
    Verify.report (Verify.run compiled)
  in
  let run jobs =
    Cwsp_core.Executor.map_pool ~cat:"verify-race"
      ~label:(fun i -> (fst pairs.(i)).W.pname)
      ~jobs report pairs
  in
  Alcotest.(check (array string)) "jobs=1 vs jobs=4" (run 1) (run 4)

let () =
  Alcotest.run "race"
    [
      ( "static",
        [
          Alcotest.test_case "registry sweep (all parallel workloads x 3 configs)"
            `Slow test_registry_sweep;
          Alcotest.test_case "mutation corpus: intended rule only" `Quick
            test_mutants_static;
          Alcotest.test_case "tid-affine disjointness verdicts" `Quick
            test_tid_affine;
          Alcotest.test_case "redundant-atomic lint" `Quick test_redundant_atomic;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "registry monitor corroboration" `Slow
            test_registry_monitor;
          Alcotest.test_case "mutation corpus: dynamic misbehaviour" `Slow
            test_mutants_dynamic;
          Alcotest.test_case "sweep outcome digest (corpus + 30 programs)" `Quick
            test_sweep_digest;
          Alcotest.test_case "quantum regression" `Quick test_quantum;
        ] );
      ( "cross",
        [
          Alcotest.test_case "fuzz soundness hammer (40 programs)" `Slow
            test_fuzz_soundness;
          Alcotest.test_case "parallel verify determinism" `Quick
            test_parallel_determinism;
        ] );
    ]
