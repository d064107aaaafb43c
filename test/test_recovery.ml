(* End-to-end validation of the recovery protocol (Section VII):
   crash injection at many points, undo-log revert, recovery-slice
   execution, resumption, NVM-state equality — including a negative test
   showing the harness actually detects corruption. *)

open Cwsp_compiler

let compiled_of name =
  Cwsp_core.Api.compiled (Cwsp_workloads.Registry.find_exn name) Pipeline.cwsp

let sweep name ~points =
  let compiled = compiled_of name in
  let tr = Cwsp_core.Api.trace (Cwsp_workloads.Registry.find_exn name) Pipeline.cwsp in
  let total = Cwsp_interp.Trace.length tr in
  let failures = ref [] in
  for i = 0 to points - 1 do
    let crash_at = 1 + (i * (total - 2) / points) in
    match
      Cwsp_recovery.Harness.validate ~seed:(9000 + i) ~crash_at compiled
    with
    | Ok _ -> ()
    | Error e -> failures := Printf.sprintf "@%d: %s" crash_at e :: !failures
  done;
  !failures

let test_sweep name points () =
  Alcotest.(check (list string)) (name ^ " recovery clean") [] (sweep name ~points)

(* early crashes: the program-start and prologue paths *)
let test_early_crashes () =
  let compiled = compiled_of "bzip2" in
  for crash_at = 1 to 40 do
    match Cwsp_recovery.Harness.validate ~seed:crash_at ~crash_at compiled with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "crash@%d: %s" crash_at e
  done

(* repeated seeds vary the persisted subsets at one crash point *)
let test_seed_variation () =
  let compiled = compiled_of "radix" in
  for seed = 0 to 30 do
    match Cwsp_recovery.Harness.validate ~seed ~crash_at:20_000 compiled with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "seed %d: %s" seed e
  done

(* recovery re-executes only a bounded window of instructions *)
let test_reexecution_bounded () =
  let compiled = compiled_of "water-ns" in
  match Cwsp_recovery.Harness.validate ~seed:5 ~crash_at:30_000 compiled with
  | Ok r ->
    Alcotest.(check bool) "some registers restored" true (r.fr_restored >= 0);
    Alcotest.(check bool) "recovery region near crash" true
      (r.fr_nominal_region > 0)
  | Error e -> Alcotest.fail e

(* NEGATIVE: corrupt one recovery slice; the harness must detect the
   resulting inconsistency for some crash point. This shows the sweep
   above is a real check, not a tautology. *)
let test_corrupted_slice_detected () =
  let compiled = compiled_of "bzip2" in
  (* corrupt every non-empty slice: claim each live-in register is 0xBAD *)
  let corrupted =
    {
      compiled with
      Pipeline.slices =
        Array.map
          (fun slice ->
            List.map (fun (r, _) -> (r, Cwsp_ckpt.Slice.EImm 0xBAD)) slice)
          compiled.Pipeline.slices;
    }
  in
  let tr = Cwsp_core.Api.trace (Cwsp_workloads.Registry.find_exn "bzip2") Pipeline.cwsp in
  let total = Cwsp_interp.Trace.length tr in
  let detected = ref false in
  (try
     for i = 1 to 50 do
       let crash_at = 1 + (i * (total - 2) / 50) in
       match
         Cwsp_recovery.Harness.validate ~seed:i ~crash_at corrupted
       with
       | Ok _ -> ()
       | Error _ ->
         detected := true;
         raise Exit
     done
   with Exit -> ());
  Alcotest.(check bool) "corruption detected" true !detected

(* the poison scheme itself: registers not restored by the slice must be
   genuinely dead; stress on the pointer-heavy allocator workload *)
let test_allocator_workload_sweep () =
  Alcotest.(check (list string)) "allocator-heavy recovery clean" []
    (sweep "c" ~points:25)

(* Exactly-once device I/O (Section VIII): a program that emits output
   inside its hot loop; across any crash, released-prefix + regenerated
   output must equal the failure-free stream — validated by the harness
   for every crash point. *)
let test_io_exactly_once () =
  let b = Cwsp_ir.Builder.program () in
  Cwsp_runtime.Libc.add b;
  Cwsp_ir.Builder.global b "iobuf" ~size:512 ();
  Cwsp_ir.Builder.func b "main" ~nparams:0 (fun fb ->
      let open Cwsp_ir.Builder in
      let g = la fb "iobuf" in
      let _ =
        loop fb ~from:(Imm 0) ~below:(Imm 60) (fun i ->
            let v = load fb (bin fb Add (Reg g) (Reg (bin fb Shl (Reg (bin fb Rem (Reg i) (Imm 64)) ) (Imm 3)))) 0 in
            let w = bin fb Add (Reg v) (Reg i) in
            store fb (bin fb Add (Reg g) (Reg (bin fb Shl (Reg (bin fb Rem (Reg i) (Imm 64))) (Imm 3)))) 0 (Reg w);
            (* device write every iteration *)
            call_void fb "__out" [ Reg w ])
      in
      ret fb None);
  Cwsp_ir.Builder.set_main b "main";
  let prog = Cwsp_ir.Builder.finish b in
  let compiled = Pipeline.compile ~config:Pipeline.cwsp prog in
  let _, tr = Cwsp_interp.Machine.trace_of_program compiled.prog in
  let total = Cwsp_interp.Trace.length tr in
  (* crash at every instruction: the harness checks both NVM state and
     the exactly-once I/O property *)
  let failures = ref [] in
  for crash_at = 1 to total - 2 do
    match Cwsp_recovery.Harness.validate ~seed:crash_at ~crash_at compiled with
    | Ok _ -> ()
    | Error e ->
      if List.length !failures < 3 then
        failures := Printf.sprintf "@%d: %s" crash_at e :: !failures
  done;
  Alcotest.(check (list string)) "I/O exactly-once at every crash point" []
    !failures

(* Crash during recovery: the machine loses power again while
   re-executing after a first failure. Recovery must compose. *)
let test_double_crash () =
  let compiled = compiled_of "bzip2" in
  let tr = Cwsp_core.Api.trace (Cwsp_workloads.Registry.find_exn "bzip2") Pipeline.cwsp in
  let total = Cwsp_interp.Trace.length tr in
  for i = 0 to 19 do
    let c1 = 1 + (i * (total - 2) / 20) in
    (* second failure shortly after resumption — inside or just past the
       re-executed region *)
    List.iter
      (fun c2 ->
        match
          Cwsp_recovery.Harness.validate_chain ~seed:(300 + i)
            ~crash_points:[ c1; c2 ] compiled
        with
        | Ok crashes ->
          Alcotest.(check bool) "at least one crash" true (crashes >= 1)
        | Error e -> Alcotest.failf "c1=%d c2=%d: %s" c1 c2 e)
      [ 3; 17; 120 ]
  done

let test_triple_crash () =
  let compiled = compiled_of "radix" in
  for seed = 0 to 9 do
    match
      Cwsp_recovery.Harness.validate_chain ~seed
        ~crash_points:[ 10_000 + (seed * 1500); 40; 40 ] compiled
    with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "seed %d: %s" seed e
  done

(* ---- MC undo-log arrays (Section V-B2) ---- *)

(* The Fig. 10(c) hazard: two speculative regions store to the same
   address. With append-only per-region logs, reverse-chronological
   revert restores the value the oldest unpersisted region must read. *)
let test_mc_logs_fig10c () =
  let logs = Cwsp_recovery.Mc_logs.create ~n_mcs:2 in
  let mem = Cwsp_ir.Memory.create () in
  let addr = 0x2000 in
  (* Rg0 (non-speculative) wrote 100 earlier; NVM holds it *)
  Cwsp_ir.Memory.write mem addr 100;
  (* speculative Rg1 stores 200 (logs old=100), Rg2 stores 300 (logs old=200) *)
  Cwsp_recovery.Mc_logs.log logs ~region:1 ~addr ~old:100 ~value:200;
  Cwsp_ir.Memory.write mem addr 200;
  Cwsp_recovery.Mc_logs.log logs ~region:2 ~addr ~old:200 ~value:300;
  Cwsp_ir.Memory.write mem addr 300;
  (* power failure while Rg0 is the oldest unpersisted region: replay
     the younger regions' records in undo order *)
  List.iter
    (fun (_, (e : Cwsp_recovery.Mc_logs.entry)) ->
      Cwsp_ir.Memory.write mem e.e_addr e.e_old)
    (Cwsp_recovery.Mc_logs.undo_order logs ~regions:[ 1; 2 ]);
  Alcotest.(check int) "ld in Rg0 re-reads 100, not 200" 100
    (Cwsp_ir.Memory.read mem addr)

let test_mc_logs_deallocate () =
  let logs = Cwsp_recovery.Mc_logs.create ~n_mcs:2 in
  Cwsp_recovery.Mc_logs.log logs ~region:5 ~addr:0x100 ~old:1 ~value:11;
  Cwsp_recovery.Mc_logs.log logs ~region:5 ~addr:0x200 ~old:2 ~value:22;
  Cwsp_recovery.Mc_logs.log logs ~region:6 ~addr:0x300 ~old:3 ~value:33;
  Alcotest.(check int) "three live" 3 (Cwsp_recovery.Mc_logs.live_entries logs);
  Cwsp_recovery.Mc_logs.deallocate logs ~region:5;
  Alcotest.(check int) "region 5 reclaimed" 1
    (Cwsp_recovery.Mc_logs.live_entries logs);
  Alcotest.(check int) "region 6 intact" 1
    (List.length (Cwsp_recovery.Mc_logs.region_entries logs ~region:6))

let test_mc_logs_revert_excludes_oldest () =
  let logs = Cwsp_recovery.Mc_logs.create ~n_mcs:2 in
  let mem = Cwsp_ir.Memory.create () in
  Cwsp_ir.Memory.write mem 0x100 77 (* R_o's own speculative write *);
  Cwsp_recovery.Mc_logs.log logs ~region:3 ~addr:0x100 ~old:7 ~value:77;
  Cwsp_ir.Memory.write mem 0x200 88;
  Cwsp_recovery.Mc_logs.log logs ~region:4 ~addr:0x200 ~old:8 ~value:88;
  Cwsp_ir.Memory.write mem 0x100 99 (* a younger store over R_o's *);
  Cwsp_recovery.Mc_logs.log logs ~region:4 ~addr:0x100 ~old:77 ~value:99;
  (* R_o = region 3: only the younger regions are replayed *)
  List.iter
    (fun (_, (e : Cwsp_recovery.Mc_logs.entry)) ->
      Cwsp_ir.Memory.write mem e.e_addr e.e_old)
    (Cwsp_recovery.Mc_logs.undo_order logs ~regions:[ 4 ]);
  Alcotest.(check int) "R_o's data store kept (idempotence handles it)" 77
    (Cwsp_ir.Memory.read mem 0x100);
  Alcotest.(check int) "younger region reverted" 8
    (Cwsp_ir.Memory.read mem 0x200)

(* REGRESSION: the recovery-point draw used to be bounded by the window
   instead of the tracked-region count. Right after a boundary step the
   list legitimately holds window+1 regions, so at window=1 the protocol
   could never roll back to the just-closed region. Post-fix, a
   contiguous crash sweep at window=1 must both stay clean and actually
   revert a region at some crash point. *)
let test_window1_rollback_regression () =
  let compiled = compiled_of "lu-ncg" in
  let saw_rollback = ref false in
  for i = 0 to 149 do
    let crash_at = 5_000 + i in
    match
      Cwsp_recovery.Harness.validate ~window:1 ~seed:(800 + i) ~crash_at
        compiled
    with
    | Ok r -> if r.fr_rollback >= 1 then saw_rollback := true
    | Error e -> Alcotest.failf "window=1 crash@%d: %s" crash_at e
  done;
  Alcotest.(check bool) "window=1 selects the just-closed region" true
    !saw_rollback

(* ---- hardened log records: checksums, LSNs, count headers ---- *)

let hardened_logs () =
  let logs = Cwsp_recovery.Mc_logs.create ~n_mcs:2 in
  (* addresses span both MCs (256-byte interleave) *)
  List.iter
    (fun (addr, old, value) ->
      Cwsp_recovery.Mc_logs.log logs ~region:9 ~addr ~old ~value)
    [ (0x100, 1, 2); (0x208, 3, 4); (0x110, 5, 6); (0x218, 7, 8); (0x120, 9, 10) ];
  logs

let test_mc_logs_audit_clean () =
  let au = Cwsp_recovery.Mc_logs.audit_region (hardened_logs ()) ~region:9 in
  Alcotest.(check (list string)) "no structural damage" []
    au.Cwsp_recovery.Mc_logs.au_structural;
  Alcotest.(check int) "no bad records" 0
    (List.length au.Cwsp_recovery.Mc_logs.au_bad)

let test_mc_logs_audit_corruption () =
  let rng = Cwsp_util.Rng.create 4 in
  let detected = ref 0 in
  (* the injector picks a random record/field each time; every single
     corruption must be visible to the audit *)
  for trial = 0 to 19 do
    let logs = hardened_logs () in
    match Cwsp_recovery.Mc_logs.inject_corrupt logs rng ~regions:[ 9 ] with
    | None -> Alcotest.failf "trial %d: nothing to corrupt" trial
    | Some _ ->
      let au = Cwsp_recovery.Mc_logs.audit_region logs ~region:9 in
      if au.Cwsp_recovery.Mc_logs.au_structural <> [] || au.au_bad <> [] then
        incr detected
  done;
  Alcotest.(check int) "every corruption detected" 20 !detected

let test_mc_logs_audit_drop_tail () =
  let rng = Cwsp_util.Rng.create 11 in
  let logs = hardened_logs () in
  (match Cwsp_recovery.Mc_logs.inject_drop_tail logs rng ~regions:[ 9 ] with
  | None -> Alcotest.fail "nothing to drop"
  | Some _ -> ());
  let au = Cwsp_recovery.Mc_logs.audit_region logs ~region:9 in
  Alcotest.(check bool) "count header exposes the dropped tail" true
    (au.Cwsp_recovery.Mc_logs.au_structural <> [])

let test_mc_logs_copy_independent () =
  let logs = hardened_logs () in
  let snap = Cwsp_recovery.Mc_logs.copy logs in
  let rng = Cwsp_util.Rng.create 3 in
  ignore (Cwsp_recovery.Mc_logs.inject_corrupt logs rng ~regions:[ 9 ]);
  let au = Cwsp_recovery.Mc_logs.audit_region snap ~region:9 in
  Alcotest.(check (list string)) "snapshot untouched by later corruption" []
    au.Cwsp_recovery.Mc_logs.au_structural;
  Alcotest.(check int) "snapshot records still verify" 0
    (List.length au.Cwsp_recovery.Mc_logs.au_bad)

(* ---- model-based check of the undo-log arrays ---- *)

(* A naive reference for [Mc_logs]: per MC an association list from
   region to (records newest first, count header), records as immutable
   tuples (lsn, addr, old, new_sum, sum). Random operation sequences run
   against both; every live instance — including copies, which later
   operations keep mutating — must agree on every region's entries, its
   audit and the live count. A copy that shared any mutable state with
   its source (an array, a record, the last-region cache) would drift
   from its model. *)
module Ref_logs = struct
  type r = int * int * int * int * int
  type t = { n : int; mcs : (int * (r list * int)) list array }

  let create n = { n; mcs = Array.make n [] }
  let copy t = { t with mcs = Array.copy t.mcs }
  let mc_of t addr = (addr lsr 8) mod t.n
  let get t mc region = List.assoc_opt region t.mcs.(mc)
  let set t mc region v =
    t.mcs.(mc) <- (region, v) :: List.remove_assoc region t.mcs.(mc)

  let log t ~region ~addr ~old ~value =
    let mc = mc_of t addr in
    let es, cnt = Option.value ~default:([], 0) (get t mc region) in
    let new_sum = Cwsp_recovery.Fault.value_sum value in
    let sum =
      Cwsp_recovery.Fault.record_sum ~region ~lsn:cnt ~addr ~old ~new_sum
    in
    set t mc region ((cnt, addr, old, new_sum, sum) :: es, cnt + 1)

  let deallocate t ~region =
    Array.iteri (fun mc l -> t.mcs.(mc) <- List.remove_assoc region l) t.mcs

  let reset t = Array.fill t.mcs 0 t.n []
  let entries t mc region = match get t mc region with Some (es, _) -> es | None -> []
  let region_entries t ~region =
    List.concat (List.init t.n (fun mc -> entries t mc region))

  let live t =
    Array.fold_left
      (fun acc l -> List.fold_left (fun a (_, (es, _)) -> a + List.length es) acc l)
      0 t.mcs

  let ok region (lsn, addr, old, new_sum, sum) =
    sum = Cwsp_recovery.Fault.record_sum ~region ~lsn ~addr ~old ~new_sum

  let audit t ~region =
    let structural = ref [] and bad = ref [] in
    for mc = 0 to t.n - 1 do
      let es, header = Option.value ~default:([], 0) (get t mc region) in
      let n = List.length es in
      if n <> header then
        structural :=
          Printf.sprintf "mc%d region %d: count header %d but %d records" mc
            region header n
          :: !structural;
      List.iter (fun e -> if not (ok region e) then bad := e :: !bad) es;
      List.iteri
        (fun i ((lsn, _, _, _, _) as e) ->
          if ok region e && lsn <> n - 1 - i then
            structural :=
              Printf.sprintf "mc%d region %d: lsn %d where %d expected" mc
                region lsn (n - 1 - i)
              :: !structural)
        es
    done;
    (!structural, !bad)

  let drop_tail t rng ~regions =
    let cands =
      List.concat_map
        (fun r ->
          List.filter_map
            (fun mc -> if entries t mc r <> [] then Some (mc, r) else None)
            (List.init t.n Fun.id))
        regions
    in
    if cands <> [] then begin
      let mc, r = List.nth cands (Cwsp_util.Rng.int rng (List.length cands)) in
      let es, cnt = Option.get (get t mc r) in
      let k = 1 + Cwsp_util.Rng.int rng (List.length es) in
      set t mc r (List.filteri (fun i _ -> i >= k) es, cnt)
    end

  let corrupt t rng ~regions =
    let cands =
      List.concat_map
        (fun r ->
          List.filter_map
            (fun mc -> if entries t mc r <> [] then Some (mc, r) else None)
            (List.init t.n Fun.id))
        regions
    in
    if cands <> [] then begin
      let mc, r = List.nth cands (Cwsp_util.Rng.int rng (List.length cands)) in
      let es, cnt = Option.get (get t mc r) in
      let i = Cwsp_util.Rng.int rng (List.length es) in
      let lsn, addr, old, ns, sum = List.nth es i in
      let replace e = List.mapi (fun j x -> if j = i then e else x) es in
      let flip = Cwsp_recovery.Fault.flip_bit in
      let es' =
        match Cwsp_util.Rng.int rng 4 with
        | 0 -> replace (lsn, flip rng addr, old, ns, sum)
        | 1 -> replace (lsn, addr, flip rng old, ns, sum)
        | 2 -> replace (lsn, addr, old, ns, flip rng sum)
        | _ -> List.filteri (fun j _ -> j <> i) es
      in
      set t mc r (es', cnt)
    end
end

let test_mc_logs_model () =
  let module L = Cwsp_recovery.Mc_logs in
  let as_tuple (e : L.entry) = (e.e_lsn, e.e_addr, e.e_old, e.e_new_sum, e.e_sum) in
  let n_regions = 6 in
  for seed = 0 to 59 do
    let rng = Cwsp_util.Rng.create seed in
    let n_mcs = 1 + Cwsp_util.Rng.int rng 3 in
    let live = ref [ (L.create ~n_mcs, Ref_logs.create n_mcs) ] in
    let check step =
      List.iteri
        (fun k (impl, model) ->
          let got =
            ( L.live_entries impl,
              List.init n_regions (fun region ->
                  let au = L.audit_region impl ~region in
                  ( List.map as_tuple (L.region_entries impl ~region),
                    au.au_structural,
                    List.map as_tuple au.au_bad )) )
          and want =
            ( Ref_logs.live model,
              List.init n_regions (fun region ->
                  let st, bad = Ref_logs.audit model ~region in
                  (Ref_logs.region_entries model ~region, st, bad)) )
          in
          if got <> want then
            Alcotest.failf "seed %d step %d: instance %d diverged from the model"
              seed step k)
        !live
    in
    for step = 1 to 80 do
      let arr = Array.of_list !live in
      let impl, model = arr.(Cwsp_util.Rng.int rng (Array.length arr)) in
      let region = Cwsp_util.Rng.int rng n_regions in
      let regions = [ region; (region + 1) mod n_regions ] in
      (match Cwsp_util.Rng.int rng 20 with
      | 0 | 1 -> L.deallocate impl ~region; Ref_logs.deallocate model ~region
      | 2 -> L.reset impl; Ref_logs.reset model
      | 3 when List.length !live < 4 ->
        live := !live @ [ (L.copy impl, Ref_logs.copy model) ]
      | 4 ->
        let r2 = Cwsp_util.Rng.copy rng in
        ignore (L.inject_drop_tail impl rng ~regions);
        Ref_logs.drop_tail model r2 ~regions
      | 5 ->
        let r2 = Cwsp_util.Rng.copy rng in
        ignore (L.inject_corrupt impl rng ~regions);
        Ref_logs.corrupt model r2 ~regions
      | _ ->
        let addr = 8 * Cwsp_util.Rng.int rng 128 in
        let old = Cwsp_util.Rng.int rng 1000 and value = Cwsp_util.Rng.int rng 1000 in
        L.log impl ~region ~addr ~old ~value;
        Ref_logs.log model ~region ~addr ~old ~value);
      check step
    done
  done

(* ---- adversarial fault model ---- *)

let fault_compiled = lazy (compiled_of "lu-ncg")
let fault_golden =
  lazy (Cwsp_recovery.Harness.golden_of Main (Lazy.force fault_compiled))

(* NEGATIVE corpus: with hardening disabled (blind protocol: trust every
   byte, legacy truncate-first ordering), each fault class must produce
   an observable divergence from the failure-free run for some seed.
   This proves the campaign's oracle sees exactly the damage the
   hardened audits catch — the positive results are not a tautology. *)
let test_blind_diverges cls () =
  let compiled = Lazy.force fault_compiled in
  let golden = Lazy.force fault_golden in
  let diverged = ref false in
  (try
     for seed = 0 to 29 do
       let crash_at = 3_000 + (seed * 1_100) in
       match
         Cwsp_recovery.Harness.validate_fault ~golden ~hardened:false
           ~fault:cls ~seed ~crash_at compiled
       with
       | Ok r ->
         if r.fr_injected <> None && not r.fr_state_ok then begin
           diverged := true;
           raise Exit
         end
       | Error _ ->
         (* the blind protocol wedged outright — also a divergence *)
         diverged := true;
         raise Exit
     done
   with Exit -> ());
  Alcotest.(check bool)
    (Cwsp_recovery.Fault.name cls ^ " breaks the blind protocol")
    true !diverged

(* POSITIVE: the hardened protocol over the same fault classes — a small
   deterministic campaign must inject real faults, detect them, and
   never let one escape to a wrong committed state. *)
let test_hardened_campaign () =
  let targets =
    [ Cwsp_recovery.Campaign.target ~name:"lu-ncg" (Lazy.force fault_compiled) ]
  in
  let report =
    Cwsp_recovery.Campaign.run ~window:8 ~hardened:true ~master_seed:77
      ~seeds:4 ~classes:Cwsp_recovery.Fault.all targets
  in
  Alcotest.(check (list string)) "zero escaped faults" []
    (List.map
       (fun (c : Cwsp_recovery.Campaign.cell) -> c.c_detail)
       (Cwsp_recovery.Campaign.escaped report));
  let injected =
    List.length
      (List.filter
         (fun (c : Cwsp_recovery.Campaign.cell) -> c.c_injected)
         report.r_cells)
  and detected =
    List.length
      (List.filter
         (fun (c : Cwsp_recovery.Campaign.cell) -> c.c_detected)
         report.r_cells)
  in
  Alcotest.(check bool) "faults were actually injected" true (injected >= 10);
  Alcotest.(check bool) "hardening audits fired" true (detected >= 1);
  (* determinism: the same matrix again is byte-identical *)
  let report2 =
    Cwsp_recovery.Campaign.run ~window:8 ~hardened:true ~master_seed:77
      ~seeds:4 ~classes:Cwsp_recovery.Fault.all targets
  in
  Alcotest.(check string) "campaign is deterministic"
    (Cwsp_recovery.Campaign.to_json report)
    (Cwsp_recovery.Campaign.to_json report2)

(* Crash during recovery: the staged plan is swept — power is cut after
   every prefix of recovery steps, recovery restarts from the surviving
   image, and the final state must still match. Slice instructions must
   be among the swept crash sites. *)
let test_recovery_crash_sweep () =
  let compiled = Lazy.force fault_compiled in
  let golden = Lazy.force fault_golden in
  let points = ref 0 and slice_points = ref 0 in
  for seed = 0 to 7 do
    let crash_at = 4_000 + (seed * 4_000) in
    match
      Cwsp_recovery.Harness.validate_fault ~golden ~hardened:true
        ~fault:Cwsp_recovery.Fault.Recovery_crash ~seed ~crash_at compiled
    with
    | Ok r ->
      Alcotest.(check int)
        (Printf.sprintf "seed %d: no sweep failures" seed)
        0 r.fr_sweep_failures;
      Alcotest.(check bool) "final state matches" true r.fr_state_ok;
      points := !points + r.fr_sweep_points;
      slice_points := !slice_points + r.fr_sweep_slice_points
    | Error e -> Alcotest.failf "seed %d: %s" seed e
  done;
  Alcotest.(check bool) "swept mid-recovery crash sites" true (!points > 0);
  Alcotest.(check bool) "swept recovery-slice instructions" true
    (!slice_points > 0)

(* The sweep memo is outcome-neutral and does what it claims: under the
   hardened protocol every mid-recovery restart rebuilds exactly the
   clean recovery's image, so every sweep point reuses the clean
   verdict; blind restarts re-read a prematurely truncated log, their
   images differ, and they run in full. The counters only count while
   telemetry is on. *)
let test_sweep_memo () =
  let module Obs = Cwsp_obs.Obs in
  let compiled = Lazy.force fault_compiled in
  let golden = Lazy.force fault_golden in
  let reused = Obs.Counter.make "recovery.sweep.reused"
  and rerun = Obs.Counter.make "recovery.sweep.rerun" in
  Obs.enable ();
  Fun.protect ~finally:Obs.reset (fun () ->
      let sweep ~hardened =
        let r0 = Obs.Counter.value reused and x0 = Obs.Counter.value rerun in
        let points = ref 0 in
        for seed = 0 to 5 do
          match
            Cwsp_recovery.Harness.validate_fault ~golden ~hardened
              ~fault:Cwsp_recovery.Fault.Recovery_crash ~seed
              ~crash_at:(4_000 + (seed * 4_000)) compiled
          with
          | Ok r -> points := !points + r.fr_sweep_points
          | Error e -> Alcotest.failf "seed %d: %s" seed e
        done;
        (!points, Obs.Counter.value reused - r0, Obs.Counter.value rerun - x0)
      in
      let points, re, run = sweep ~hardened:true in
      Alcotest.(check bool) "hardened sweep has points" true (points > 0);
      Alcotest.(check (pair int int)) "hardened: every point reused"
        (points, 0) (re, run);
      let points, re, run = sweep ~hardened:false in
      Alcotest.(check int) "blind: every point counted" points (re + run);
      Alcotest.(check bool) "blind: restarts re-run" true (run > 0))

(* A resumed run that dereferences a poisoned or corrupted register
   faults on a wild address inside [Memory]. That is a wrong outcome of
   recovery, like a trap: the harness must report it, not let the
   exception escape. Every slice here claims its registers hold 0xBAD,
   a misaligned pointer. *)
let test_wild_resume_is_wrong_outcome () =
  let compiled = compiled_of "bzip2" in
  let corrupted =
    {
      compiled with
      Pipeline.slices =
        Array.map
          (List.map (fun (r, _) -> (r, Cwsp_ckpt.Slice.EImm 0xBAD)))
          compiled.Pipeline.slices;
    }
  in
  let golden = Cwsp_recovery.Harness.golden_of Main compiled in
  let wrong = ref 0 in
  for i = 1 to 20 do
    let crash_at = i * golden.g_steps / 21 in
    match
      Cwsp_recovery.Harness.validate_fault ~golden ~hardened:true ~seed:i
        ~crash_at corrupted
    with
    | Ok r -> if not r.fr_state_ok then incr wrong
    | Error e -> Alcotest.failf "crash@%d: %s" crash_at e
  done;
  Alcotest.(check bool) "corrupt slices give wrong outcomes" true (!wrong > 0)

(* The same corruption through the clean-crash experiments: a resumed
   run that dereferences 0xBAD faults inside [Memory], and each
   experiment must report that as an [Error] — never let the exception
   escape. *)
let test_wild_clean_resume_is_error () =
  let corrupt (c : Pipeline.compiled) =
    {
      c with
      Pipeline.slices =
        Array.map
          (List.map (fun (r, _) -> (r, Cwsp_ckpt.Slice.EImm 0xBAD)))
          c.Pipeline.slices;
    }
  in
  let compiled = corrupt (compiled_of "bzip2") in
  let steps = (Cwsp_recovery.Harness.golden_of Main compiled).g_steps in
  for i = 1 to 4 do
    let crash_at = i * steps / 5 in
    (match Cwsp_recovery.Harness.validate ~seed:i ~crash_at compiled with
    | Ok _ -> Alcotest.failf "validate @%d: corrupt slice passed" crash_at
    | Error _ -> ());
    match
      Cwsp_recovery.Harness.validate_chain ~seed:i
        ~crash_points:[ crash_at; 50 ] compiled
    with
    | Ok _ -> Alcotest.failf "validate_chain @%d: corrupt slice passed" crash_at
    | Error _ -> ()
  done;
  let explicit =
    corrupt
      (Cwsp_core.Api.compiled
         (Cwsp_workloads.Registry.find_exn "fft")
         Pipeline.cwsp_explicit)
  in
  let steps = (Cwsp_recovery.Harness.golden_of Main explicit).g_steps in
  let errors = ref 0 in
  for i = 1 to 4 do
    match
      Cwsp_recovery.Harness.validate_explicit ~crash_at:(i * steps / 5) explicit
    with
    | Ok _ -> ()
    | Error _ -> incr errors
  done;
  Alcotest.(check bool) "explicit: corrupt slices give errors" true (!errors > 0)

(* Byte-identity pin: the [Campaign.to_json] digests of a small matrix
   (lu-ncg + fft, all five classes, two repetitions, window 8), hardened
   and blind. Both matrices include Recovery_crash cells with sweep
   points, so any change to the tracked run, the crash state, the
   ladder or the mid-recovery sweep that moves a single report byte
   fails here. *)
let pinned_targets =
  lazy
    (List.map
       (fun n -> Cwsp_recovery.Campaign.target ~name:n (compiled_of n))
       [ "lu-ncg"; "fft" ])

let test_campaign_pinned ~hardened ~digest ~sweep_points () =
  let r =
    Cwsp_recovery.Campaign.run ~window:8 ~hardened ~master_seed:77 ~seeds:2
      ~classes:Cwsp_recovery.Fault.all (Lazy.force pinned_targets)
  in
  Alcotest.(check int) "sweep points" sweep_points
    (fst (Cwsp_recovery.Campaign.sweep_coverage r));
  Alcotest.(check string) "report digest" digest
    (Digest.to_hex (Digest.string (Cwsp_recovery.Campaign.to_json r)))

(* ---- byte-identity pins for the clean-crash experiments ---- *)

(* Digests of the clean, chained and explicit crash experiments over
   fixed matrices: the verdict and every report field a caller reads.
   Any change to how a crash is cut, recovered, resumed or compared that
   moves one of them fails here. *)
let digest_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let clean_row name ~window ~seed ~crash_at =
  match
    Cwsp_recovery.Harness.validate ~window ~seed ~crash_at (compiled_of name)
  with
  | Ok r ->
    Printf.sprintf "%s w%d s%d @%d: ok step=%d region=%d back=%d regs=%d" name
      window seed crash_at r.fr_crash_step r.fr_nominal_region r.fr_rollback
      r.fr_restored
  | Error _ -> Printf.sprintf "%s w%d s%d @%d: error" name window seed crash_at

let clean_matrix () =
  let rows = ref [] in
  let add r = rows := r :: !rows in
  List.iter
    (fun (name, window) ->
      let steps = (Cwsp_recovery.Harness.golden_of Main (compiled_of name)).g_steps in
      (* pre-first-boundary points, then points strided over the run *)
      let points = [ 1; 2; 3 ] @ List.init 9 (fun i -> (i + 1) * steps / 10) in
      List.iter
        (fun crash_at ->
          for seed = 0 to 3 do
            add (clean_row name ~window ~seed ~crash_at)
          done)
        points)
    [ ("bzip2", 16); ("lu-ncg", 1); ("radix", 4) ];
  List.rev !rows

let test_clean_pinned () =
  Alcotest.(check string) "validate matrix digest" "fdf3ede06122cfc5afc232ce085d80e9"
    (digest_lines (clean_matrix ()))

let test_chain_pinned () =
  let compiled = compiled_of "bzip2" in
  let steps = (Cwsp_recovery.Harness.golden_of Main compiled).g_steps in
  let rows = ref [] in
  for i = 0 to 7 do
    let c1 = 1 + (i * steps / 8) in
    List.iter
      (fun crash_points ->
        let r =
          match
            Cwsp_recovery.Harness.validate_chain ~seed:(40 + i) ~crash_points
              compiled
          with
          | Ok n -> Printf.sprintf "ok %d" n
          | Error _ -> "error"
        in
        rows :=
          Printf.sprintf "[%s] %s"
            (String.concat ";" (List.map string_of_int crash_points))
            r
          :: !rows)
      [ [ c1 ]; [ c1; 3 ]; [ c1; 17; 40 ]; [ c1; 120; 5; steps ] ]
  done;
  Alcotest.(check string) "validate_chain digest" "44423676ffd45f5f9a07d5aad639ee9e"
    (digest_lines (List.rev !rows))

let test_explicit_pinned () =
  let compiled =
    Cwsp_core.Api.compiled
      (Cwsp_workloads.Registry.find_exn "fft")
      Pipeline.cwsp_explicit
  in
  let steps = (Cwsp_recovery.Harness.golden_of Main compiled).g_steps in
  let rows =
    List.init 16 (fun i ->
        let crash_at = 1 + (i * steps / 16) in
        match Cwsp_recovery.Harness.validate_explicit ~crash_at compiled with
        | Ok r ->
          Printf.sprintf "@%d: ok step=%d boundary=%d regs=%d" crash_at
            r.fr_crash_step r.fr_nominal_region r.fr_restored
        | Error _ -> Printf.sprintf "@%d: error" crash_at)
  in
  Alcotest.(check string) "validate_explicit digest" "2fc349748af6321f8ca90e60f5ac262f"
    (digest_lines rows);
  let dump =
    match
      Cwsp_recovery.Harness.validate_explicit ~flight:true ~crash_at:(steps / 3)
        compiled
    with
    | Ok r -> Option.value r.fr_flight ~default:""
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "recorder-on dump digest" "14a4aa15706ef215ed1793f5c63487d5"
    (Digest.to_hex (Digest.string dump))

let test_fig_recovery_pinned () =
  let rows =
    List.map
      (fun name ->
        let ok, failed, avg =
          Cwsp_experiments.Fig_recovery.validate_workload
            (Cwsp_workloads.Registry.find_exn name)
        in
        Printf.sprintf "%s %d %d %.1f" name ok failed avg)
      Cwsp_experiments.Fig_recovery.sample
  in
  Alcotest.(check string) "Fig_recovery table digest" "6833087b65f1b88fd18b36d9c9bb7081"
    (digest_lines rows)

(* ---- one tracked run per sweep ---- *)

(* A sweep steps one tracked run through its points, so each point's
   cut, injection, recovery and comparison must leave that run as they
   found it. Checked differentially: every point's outcome — every
   [fr_*] field, the verdict string and, with the recorder on, the dump
   byte for byte — must equal the one-point sweep's. The points come
   shuffled, with a duplicate and one past the program's halt, and mix
   the blind plan with the hardened ladder against every fault class
   on the one run, as the fuzz oracle does. *)
let sweep_crash_ats steps =
  [ 7 * steps / 10; steps / 5; 1; steps + 100; 9 * steps / 10; steps / 2;
    steps / 5; 2 * steps / 5 ]

let check_sweep label ~one ~all points =
  let swept = all points in
  Alcotest.(check int) (label ^ ": one result per point") (List.length points)
    (List.length swept);
  List.iteri
    (fun i (p, r) ->
      if r <> one p then Alcotest.failf "%s: point %d differs from its one-point run" label i)
    (List.combine points swept);
  swept

let test_sweep_matches_one_point () =
  let module H = Cwsp_recovery.Harness in
  let w = Cwsp_workloads.Registry.find_exn "lu-ncg" in
  let implicit = Cwsp_core.Api.compiled w Pipeline.cwsp in
  let explicit = Cwsp_core.Api.compiled w Pipeline.cwsp_explicit in
  let g = H.golden_of Main implicit and ge = H.golden_of Main explicit in
  let modes =
    (false, None) :: List.map (fun c -> (true, Some c)) Cwsp_recovery.Fault.all
  in
  let points =
    List.concat
      (List.mapi
         (fun i crash_at ->
           List.mapi
             (fun k (hardened, fault) ->
               { H.cp_at = crash_at; cp_seed = (31 * i) + k; cp_hardened = hardened;
                 cp_fault = fault })
             modes)
         (sweep_crash_ats g.g_steps))
  in
  let explicit_points =
    List.map (fun crash_at -> H.clean_point ~seed:0 ~crash_at) (sweep_crash_ats ge.g_steps)
  in
  List.iter
    (fun flight ->
      let label = if flight then "recorder on" else "recorder off" in
      let check_mode name mode golden compiled =
        check_sweep (name ^ ", " ^ label)
          ~one:(fun p -> List.hd (H.sweep ~flight ~mode ~launch:Main ~golden compiled [ p ]))
          ~all:(H.sweep ~flight ~mode ~launch:Main ~golden compiled)
      in
      let swept_implicit = check_mode "implicit" Implicit g implicit points in
      let swept_explicit = check_mode "explicit" Explicit ge explicit explicit_points in
      let swept = swept_implicit @ swept_explicit in
      (* not vacuous: the past-halt points are errors, every other point
         reported, with a dump exactly when recording *)
      List.iter
        (function
          | Ok ((r : H.fault_report), _) ->
            Alcotest.(check bool) (label ^ ": dump iff recording") flight
              (r.fr_flight <> None)
          | Error e ->
            Alcotest.(check string) "only past the halt"
              "program halted before the crash point" e)
        swept;
      Alcotest.(check int) (label ^ ": past-halt points") (List.length modes + 1)
        (List.length (List.filter Result.is_error swept)))
    [ false; true ]

(* The same on N lanes: an SPMD worker's sweep steps its lanes
   round-robin and carries the schedule from one point to the next, so
   every point — shuffled, one duplicated, one past the halt — must equal
   its one-point sweep, and every reached point must recover clean. *)
let lanes_of name ~threads =
  let module H = Cwsp_recovery.Harness in
  let w = Cwsp_workloads.W_parallel.find_exn name in
  let compiled = Pipeline.compile ~config:Pipeline.cwsp (w.pbuild ~scale:1 ~threads) in
  let launch = H.Worker { worker = w.worker; threads } in
  (compiled, launch, H.golden_of launch compiled)

let test_sweep_lanes_match_one_point () =
  let module H = Cwsp_recovery.Harness in
  List.iter
    (fun (name, threads) ->
      let compiled, launch, golden = lanes_of name ~threads in
      let points =
        List.mapi (fun i crash_at -> H.clean_point ~seed:(40 + i) ~crash_at)
          (sweep_crash_ats golden.g_steps)
      in
      let label = Printf.sprintf "%s x%d" name threads in
      let sweep = H.sweep ~mode:Implicit ~launch ~golden compiled in
      let swept = check_sweep label ~one:(fun p -> List.hd (sweep [ p ])) ~all:sweep points in
      List.iter
        (function
          | Ok (_, Ok ()) -> ()
          | Ok (_, Error e) -> Alcotest.failf "%s: %s" label e
          | Error e ->
            Alcotest.(check string) (label ^ ": only past the halt")
              "program halted before the crash point" e)
        swept;
      Alcotest.(check int) (label ^ ": one past-halt point") 1
        (List.length (List.filter Result.is_error swept)))
    [ ("psweep", 4); ("pcounter", 4) ]

(* The hardened ladder and the fault injectors work on one lane: an
   N-lane sweep refuses their points instead of running them on lane 0
   alone. *)
let test_lanes_reject_faults () =
  let module H = Cwsp_recovery.Harness in
  let compiled, launch, golden = lanes_of "pcounter" ~threads:4 in
  let clean = H.clean_point ~seed:1 ~crash_at:(golden.g_steps / 2) in
  List.iter
    (fun (label, p) ->
      match H.sweep ~mode:Implicit ~launch ~golden compiled [ clean; p ] with
      | _ -> Alcotest.failf "%s: an N-lane sweep accepted the point" label
      | exception Invalid_argument _ -> ())
    [ ("hardened", { clean with cp_hardened = true });
      ("faulted", { clean with cp_fault = Some Cwsp_recovery.Fault.Torn_persist }) ]

(* [Campaign.run] crashes all of one target's cells on one tracked run,
   so every cell — every field and, with the recorder on, the dump byte
   for byte — must equal [Campaign.run_cell]'s one-point run of its
   spec; a pool must not move a cell; and a target listed twice is two
   groups, each copy equal to its own one-point runs. *)
let test_campaign_matches_run_cell () =
  let module C = Cwsp_recovery.Campaign in
  let classes = Cwsp_recovery.Fault.all and seeds = 3 and window = 8
  and master_seed = 77 in
  let specs targets =
    List.concat_map
      (fun t ->
        List.concat_map (fun cls -> List.init seeds (fun rep -> (t, cls, rep))) classes)
      targets
    |> List.mapi (fun i (t, cls, rep) ->
           { C.sp_target = t; sp_cls = cls; sp_rep = rep; sp_index = i })
  in
  let check label ?map ~hardened ~flight targets =
    let r = C.run ?map ~window ~hardened ~master_seed ~flight ~seeds ~classes targets in
    let specs = specs targets in
    Alcotest.(check int) (label ^ ": cells") (List.length specs) (List.length r.r_cells);
    List.iteri
      (fun i (sp, c) ->
        if c <> C.run_cell ~flight ~hardened ~window ~master_seed sp then
          Alcotest.failf "%s: cell %d differs from its one-point run" label i)
      (List.combine specs r.r_cells);
    Alcotest.(check bool) (label ^ ": dumps iff recording") flight
      (List.exists (fun (c : C.cell) -> c.c_flight <> None) r.r_cells);
    r
  in
  let targets = Lazy.force pinned_targets in
  List.iter
    (fun (hardened, flight) ->
      let label =
        Printf.sprintf "%s, recorder %s"
          (if hardened then "hardened" else "blind")
          (if flight then "on" else "off")
      in
      let r = check label ~hardened ~flight targets in
      let pooled =
        C.run ~map:(Cwsp_core.Executor.map_pool ~jobs:2) ~window ~hardened
          ~master_seed ~flight ~seeds ~classes targets
      in
      if pooled.r_cells <> r.r_cells then
        Alcotest.failf "%s: a pool of 2 moved a cell" label)
    [ (true, false); (true, true); (false, false); (false, true) ];
  let lu = List.hd targets in
  let once = check "listed once" ~hardened:true ~flight:false [ lu ] in
  let twice = check "listed twice" ~hardened:true ~flight:false [ lu; lu ] in
  Alcotest.(check int) "listed twice: twice the cells"
    (2 * List.length once.r_cells) (List.length twice.r_cells)

(* ---- resumed runs on the decoded core ---- *)

(* Every resumed run steps the untraced decoded core. The reference is
   the reference interpreter: the same lanes, from the probe's copies of
   the entries (their decoded frames converted to [Machine] frames) and
   the image, resumed with [Machine.resume] and run
   under the same fuel — one lane alone, N lanes round-robin at
   [Multi]'s quantum — through the same [stepping]. Both must give the
   same outputs per lane, the same final image, the same step counts and
   the same error text. A run that converged stopped at the crash step:
   the probe runs it on to its end with the fuel it has left, and the
   end must also be the golden run's. *)
type tally = {
  mutable runs : int;
  mutable ok : int;
  mutable wild : int;
  mutable no_fuel : int;
  mutable in_callee : int; (* a lane resumed below a caller frame *)
  mutable lanes_n : int; (* runs of more than one lane *)
  mutable carried : int; (* a lane that resumed with outputs *)
  mutable converged : int; (* a run that stopped at the crash step *)
}

let check_resumed linked (golden : Cwsp_recovery.Harness.golden) tally label
    (rs : Cwsp_recovery.Harness.resumed) =
  let open Cwsp_interp in
  let module H = Cwsp_recovery.Harness in
  let module Decode = Cwsp_ir.Decode in
  let mem = Cwsp_ir.Memory.snapshot rs.rs_start in
  let machines =
    Array.map
      (fun (e : H.entry) ->
        let frame (fr : Decode.frame) =
          { Machine.lf = linked.Machine.lfuncs.(fr.fn); regs = fr.regs; blk = fr.blk;
            idx = fr.idx; ret_to = (if fr.ret >= 0 then Some fr.ret else None) }
        in
        let frames = List.map frame e.e_frames in
        let depth = List.length frames - 1 in
        let m = Machine.resume ~tid:e.e_tid linked ~mem ~frames ~depth in
        m.outputs <- List.rev e.e_outputs;
        m)
      rs.rs_lanes
  in
  let reference =
    H.stepping (fun () ->
        match machines with
        | [| m |] -> Machine.run ~fuel:rs.rs_fuel m Machine.no_hooks
        | _ ->
          Multi.run ~fuel:rs.rs_fuel
            { linked; mem; machines; quantum = Multi.default_quantum }
            (fun _ -> Machine.no_hooks))
  in
  let n = tally.runs in
  let fail what = Alcotest.failf "%s: resumed run %d: %s differ" label n what in
  let show = function Ok () -> "ok" | Error e -> e in
  let result =
    if not rs.rs_converged then rs.rs_result
    else begin
      if rs.rs_result <> Ok () then fail "a converged run's verdict and ok";
      match rs.rs_sts with
      | [| st |] ->
        H.stepping (fun () -> Decode.run ~fuel:(rs.rs_fuel - Decode.steps st) st)
      | _ -> Alcotest.failf "%s: resumed run %d: %d lanes converged" label n
               (Array.length rs.rs_sts)
    end
  in
  if show result <> show reference then
    Alcotest.failf "%s: resumed run %d: decoded %S, reference %S" label n
      (show result) (show reference);
  Array.iteri
    (fun i st ->
      let m = machines.(i) in
      if Decode.outputs st <> Machine.outputs m then fail "outputs";
      if Decode.steps st <> Machine.steps m then fail "step counts")
    rs.rs_sts;
  if not (Cwsp_ir.Memory.equal mem (Decode.memory rs.rs_sts.(0))) then
    fail "final images";
  if rs.rs_converged then begin
    tally.converged <- tally.converged + 1;
    let st = rs.rs_sts.(0) in
    if rs.rs_lanes.(0).e_released @ Decode.outputs st <> golden.g_outputs then
      fail "a converged run's outputs and the golden";
    if
      not
        (Cwsp_ir.Memory.equal_except ~except:Cwsp_ir.Layout.is_flight_addr golden.g_mem
           (Decode.memory st))
    then fail "a converged run's final image and the golden"
  end;
  tally.runs <- n + 1;
  (match result with
  | Ok () -> tally.ok <- tally.ok + 1
  | Error e ->
    if String.ends_with ~suffix:"failed to halt" e then tally.no_fuel <- tally.no_fuel + 1
    else if String.starts_with ~prefix:"recovered run faulted" e then
      tally.wild <- tally.wild + 1);
  if Array.exists (fun (e : H.entry) -> List.length e.e_frames > 1) rs.rs_lanes then
    tally.in_callee <- tally.in_callee + 1;
  if Array.length rs.rs_lanes > 1 then tally.lanes_n <- tally.lanes_n + 1;
  if Array.exists (fun (e : H.entry) -> e.e_outputs <> []) rs.rs_lanes then
    tally.carried <- tally.carried + 1

(* The steps after which a run of [compiled] stands inside a callee. *)
let callee_steps (compiled : Pipeline.compiled) =
  let open Cwsp_interp in
  let m = Machine.create (Machine.link compiled.prog) in
  let inside = ref [] in
  while m.status = Machine.Running do
    Machine.step m Machine.no_hooks;
    if m.depth > 0 then inside := m.steps :: !inside
  done;
  Array.of_list (List.rev !inside)

(* The steps after which a run of [compiled] has just crossed a region
   boundary. *)
let boundary_steps (compiled : Pipeline.compiled) =
  let module Decode = Cwsp_ir.Decode in
  let crossed = ref [] in
  let hooks =
    { Decode.no_hooks with boundary = Some (fun st _ -> crossed := Decode.steps st :: !crossed) }
  in
  Decode.run (Decode.create ~traced:false (Decode.decode ~hooks compiled.prog));
  Array.of_list (List.rev !crossed)

let test_decoded_resume_matches_machine () =
  let module H = Cwsp_recovery.Harness in
  let tally =
    { runs = 0; ok = 0; wild = 0; no_fuel = 0; in_callee = 0; lanes_n = 0; carried = 0;
      converged = 0 }
  in
  let probed label golden (compiled : Pipeline.compiled) f =
    let linked = Cwsp_interp.Machine.link compiled.prog in
    H.with_resumed_probe (check_resumed linked golden tally label) f
  in
  (* every fault class, hardened and blind, and the clean crash *)
  let modes =
    (false, None)
    :: List.concat_map (fun c -> [ (true, Some c); (false, Some c) ]) Cwsp_recovery.Fault.all
  in
  (* slices that restore nothing: every live-in stays poisoned *)
  let poisoned (c : Pipeline.compiled) =
    { c with Pipeline.slices = Array.map (fun _ -> []) c.Pipeline.slices }
  in
  List.iter
    (fun name ->
      let w = Cwsp_workloads.Registry.find_exn name in
      let implicit = Cwsp_core.Api.compiled w Pipeline.cwsp in
      let explicit = Cwsp_core.Api.compiled w Pipeline.cwsp_explicit in
      let g = H.golden_of Main implicit and ge = H.golden_of Main explicit in
      let crash_ats steps = [ 1; steps / 5; steps / 2; 4 * steps / 5 ] in
      let points =
        List.concat
          (List.mapi
             (fun i crash_at ->
               List.mapi
                 (fun k (hardened, fault) ->
                   { H.cp_at = crash_at; cp_seed = (17 * i) + k; cp_hardened = hardened;
                     cp_fault = fault })
                 modes)
             (crash_ats g.g_steps))
      in
      let clean steps = List.map (fun c -> H.clean_point ~seed:c ~crash_at:c) (crash_ats steps) in
      (* crashes inside the syscall path, whose return values main
         checkpoints and outputs: resumes there start below callers *)
      let inside =
        let cs = callee_steps implicit in
        List.concat
          (List.init 6 (fun i ->
               let crash_at = cs.(i * Array.length cs / 6) in
               List.init 8 (fun seed -> H.clean_point ~seed ~crash_at)))
      in
      probed name g implicit (fun () ->
          ignore (H.sweep ~mode:Implicit ~launch:Main ~golden:g implicit (points @ inside));
          (* a golden that claims no steps leaves the fuel floor: these
             resumed runs run out of it *)
          ignore
            (H.sweep ~mode:Implicit ~launch:Main ~golden:{ g with g_steps = 0 } implicit
               (clean g.g_steps));
          (* the last delta runs past the halt: the final compare resumes
             a halted lane that carries its outputs *)
          ignore
            (H.validate_chain ~seed:3 ~crash_points:[ g.g_steps / 3; 50; 400 ] implicit);
          ignore
            (H.validate_chain ~seed:4 ~crash_points:[ g.g_steps / 2; g.g_steps ] implicit));
      (* With slices that restore nothing, a point whose real slice
         restores live-ins must not recover. Window 0 resumes every
         crash at its open region, so a crash right after a boundary
         resumes standing at the crash step, before any poisoned
         register is read. *)
      probed (name ^ " poisoned") g implicit (fun () ->
          let after_boundary =
            let bs = boundary_steps implicit in
            List.init 8 (fun i -> H.clean_point ~seed:i ~crash_at:bs.(i * Array.length bs / 8))
          in
          List.iter
            (fun (window, points) ->
              let restores =
                List.map
                  (function
                    | Ok ((r : H.fault_report), _) -> r.fr_restored > 0 | Error _ -> false)
                  (H.sweep ~window ~mode:Implicit ~launch:Main ~golden:g implicit points)
              in
              if not (List.mem true restores) then
                Alcotest.failf "%s: no point at window %d restores a live-in" name window;
              List.iter2
                (fun (p : H.point) (restores, o) ->
                  match o with
                  | Ok (_, Ok ()) when restores ->
                    Alcotest.failf "%s poisoned: crash@%d recovered at window %d" name
                      p.cp_at window
                  | _ -> ())
                points
                (List.combine restores
                   (H.sweep ~window ~mode:Implicit ~launch:Main ~golden:g (poisoned implicit)
                      points)))
            [ (16, clean g.g_steps); (0, after_boundary) ]);
      probed (name ^ " explicit") ge explicit (fun () ->
          ignore (H.sweep ~mode:Explicit ~launch:Main ~golden:ge explicit (clean ge.g_steps))))
    [ "lu-ncg"; "fft" ];
  let compiled, launch, golden = lanes_of "psweep" ~threads:4 in
  probed "psweep x4" golden compiled (fun () ->
      ignore
        (H.sweep ~mode:Implicit ~launch ~golden compiled
           (List.map (fun c -> H.clean_point ~seed:c ~crash_at:c)
              [ golden.g_steps / 4; golden.g_steps / 2; 3 * golden.g_steps / 4 ])));
  (* not vacuous: every kind of resumed run happened *)
  List.iter
    (fun (what, n) ->
      if n = 0 then Alcotest.failf "no resumed run %s (of %d)" what tally.runs)
    [ ("recovered", tally.ok); ("went wild", tally.wild);
      ("ran out of fuel", tally.no_fuel); ("resumed inside a callee", tally.in_callee);
      ("ran N lanes", tally.lanes_n); ("carried outputs", tally.carried);
      ("converged", tally.converged) ]

(* The explicit model has no fault classes: a hardened or faulted point
   must be refused outright, not reported as a clean recovery from a
   fault that was never injected. *)
let test_explicit_rejects_faults () =
  let module H = Cwsp_recovery.Harness in
  let w = Cwsp_workloads.Registry.find_exn "lu-ncg" in
  let explicit = Cwsp_core.Api.compiled w Pipeline.cwsp_explicit in
  let golden = H.golden_of Main explicit in
  let clean = H.clean_point ~seed:1 ~crash_at:(golden.g_steps / 2) in
  List.iter
    (fun (label, p) ->
      match H.sweep ~mode:Explicit ~launch:Main ~golden explicit [ clean; p ] with
      | _ -> Alcotest.failf "%s: explicit sweep accepted the point" label
      | exception Invalid_argument _ -> ())
    [ ("hardened", { clean with cp_hardened = true });
      ("faulted", { clean with cp_fault = Some Cwsp_recovery.Fault.Torn_persist });
      ("hardened and faulted",
       { clean with cp_hardened = true; cp_fault = Some Cwsp_recovery.Fault.Dropped_tail }) ]

let () =
  Alcotest.run "recovery"
    [
      ( "sweeps",
        [
          Alcotest.test_case "bzip2" `Slow (test_sweep "bzip2" 25);
          Alcotest.test_case "radix" `Slow (test_sweep "radix" 25);
          Alcotest.test_case "tatp" `Slow (test_sweep "tatp" 25);
          Alcotest.test_case "xz" `Slow (test_sweep "xz" 25);
          Alcotest.test_case "water-sp" `Slow (test_sweep "water-sp" 25);
          Alcotest.test_case "allocator (c)" `Slow test_allocator_workload_sweep;
          Alcotest.test_case "I/O exactly-once" `Slow test_io_exactly_once;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "early crashes" `Slow test_early_crashes;
          Alcotest.test_case "seed variation" `Slow test_seed_variation;
          Alcotest.test_case "bounded re-execution" `Quick test_reexecution_bounded;
          Alcotest.test_case "corruption detected" `Slow test_corrupted_slice_detected;
          Alcotest.test_case "double crash" `Slow test_double_crash;
          Alcotest.test_case "triple crash" `Slow test_triple_crash;
        ] );
      ( "mc-logs",
        [
          Alcotest.test_case "fig10c overwrite avoidance" `Quick test_mc_logs_fig10c;
          Alcotest.test_case "deallocation" `Quick test_mc_logs_deallocate;
          Alcotest.test_case "oldest excluded" `Quick test_mc_logs_revert_excludes_oldest;
          Alcotest.test_case "audit clean" `Quick test_mc_logs_audit_clean;
          Alcotest.test_case "audit sees corruption" `Quick test_mc_logs_audit_corruption;
          Alcotest.test_case "audit sees dropped tail" `Quick test_mc_logs_audit_drop_tail;
          Alcotest.test_case "copy is independent" `Quick test_mc_logs_copy_independent;
          Alcotest.test_case "agrees with a list model" `Quick test_mc_logs_model;
        ] );
      ( "faults",
        [
          Alcotest.test_case "window=1 rollback regression" `Slow
            test_window1_rollback_regression;
          Alcotest.test_case "blind: torn persist diverges" `Slow
            (test_blind_diverges Cwsp_recovery.Fault.Torn_persist);
          Alcotest.test_case "blind: dropped tail diverges" `Slow
            (test_blind_diverges Cwsp_recovery.Fault.Dropped_tail);
          Alcotest.test_case "blind: log corruption diverges" `Slow
            (test_blind_diverges Cwsp_recovery.Fault.Log_corruption);
          Alcotest.test_case "blind: ckpt bit flip diverges" `Slow
            (test_blind_diverges Cwsp_recovery.Fault.Ckpt_bitflip);
          Alcotest.test_case "blind: recovery crash diverges" `Slow
            (test_blind_diverges Cwsp_recovery.Fault.Recovery_crash);
          Alcotest.test_case "hardened campaign: zero escapes" `Slow
            test_hardened_campaign;
          Alcotest.test_case "recovery-crash sweep" `Slow
            test_recovery_crash_sweep;
          Alcotest.test_case "sweep memo: hardened reuses, blind re-runs" `Quick
            test_sweep_memo;
          Alcotest.test_case "wild resumed access is a wrong outcome" `Quick
            test_wild_resume_is_wrong_outcome;
          Alcotest.test_case "wild clean-crash resume is an error" `Quick
            test_wild_clean_resume_is_error;
          Alcotest.test_case "pinned report: hardened" `Quick
            (test_campaign_pinned ~hardened:true
               ~digest:"0780e818ebe7bc89b3b27e14ed4d06eb" ~sweep_points:49);
          Alcotest.test_case "pinned report: blind" `Quick
            (test_campaign_pinned ~hardened:false
               ~digest:"bd04025a803a0e7281f35bb31eb3b4da" ~sweep_points:45);
        ] );
      ( "pins",
        [
          Alcotest.test_case "clean crash matrix" `Quick test_clean_pinned;
          Alcotest.test_case "crash chains" `Quick test_chain_pinned;
          Alcotest.test_case "explicit verdicts and dump" `Quick
            test_explicit_pinned;
          Alcotest.test_case "fig_recovery table" `Quick test_fig_recovery_pinned;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "sweep matches one-point runs" `Quick
            test_sweep_matches_one_point;
          Alcotest.test_case "explicit sweep rejects fault points" `Quick
            test_explicit_rejects_faults;
          Alcotest.test_case "campaign matches one-point cells" `Quick
            test_campaign_matches_run_cell;
          Alcotest.test_case "N-lane sweep matches one-point runs" `Quick
            test_sweep_lanes_match_one_point;
          Alcotest.test_case "N-lane sweep rejects fault points" `Quick
            test_lanes_reject_faults;
          Alcotest.test_case "decoded resumes match the reference machine" `Quick
            test_decoded_resume_matches_machine;
        ] );
    ]
