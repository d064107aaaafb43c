(* Tests for the timing simulator: timestamp queues, caches, hierarchy,
   and engine-level monotonicity properties. *)

open Cwsp_sim
open Cwsp_ir
open Cwsp_interp

let qtest = QCheck_alcotest.to_alcotest

(* ---- Tsq ---- *)

let prop_tsq_fifo_completions_monotone =
  QCheck.Test.make ~name:"Tsq completions non-decreasing" ~count:200
    QCheck.(
      pair (int_range 1 8)
        (list_of_size (Gen.int_range 1 50)
           (pair (float_range 0.0 100.0) (float_range 0.1 5.0))))
    (fun (size, items) ->
      let q = Tsq.create ~size in
      let ready = ref 0.0 in
      List.for_all
        (fun (dt, service) ->
          ready := !ready +. dt;
          let prev = Tsq.last_completion q in
          let _, c = Tsq.push q ~ready:!ready ~service in
          c >= prev)
        items)

let prop_tsq_admit_after_ready =
  QCheck.Test.make ~name:"Tsq admit >= ready" ~count:200
    QCheck.(
      pair (int_range 1 8)
        (list_of_size (Gen.int_range 1 50)
           (pair (float_range 0.0 10.0) (float_range 0.1 5.0))))
    (fun (size, items) ->
      let q = Tsq.create ~size in
      let ready = ref 0.0 in
      List.for_all
        (fun (dt, service) ->
          ready := !ready +. dt;
          let a, c = Tsq.push q ~ready:!ready ~service in
          a >= !ready && c >= a +. service -. 1e-9)
        items)

let test_tsq_backpressure () =
  (* queue of 2 with slow service: the third push must wait *)
  let q = Tsq.create ~size:2 in
  let _, c1 = Tsq.push q ~ready:0.0 ~service:10.0 in
  let _ = Tsq.push q ~ready:0.0 ~service:10.0 in
  let a3, _ = Tsq.push q ~ready:0.0 ~service:10.0 in
  Alcotest.(check (float 1e-9)) "waits for first completion" c1 a3

let test_tsq_occupancy_bounded () =
  let q = Tsq.create ~size:4 in
  for _ = 1 to 20 do
    ignore (Tsq.push q ~ready:0.0 ~service:100.0)
  done;
  Alcotest.(check bool) "occupancy <= size" true (Tsq.occupancy q ~now:1.0 <= 4)

(* [occupancy] binary-searches the ring; the reference counts, among
   the last [size] completions pushed, those after [now]. [now] is
   either an offset from the last ready time or exactly one of those
   completions (a tie). *)
let prop_tsq_occupancy_matches_scan =
  QCheck.Test.make ~name:"Tsq occupancy = linear scan" ~count:300
    QCheck.(
      pair (int_range 1 40)
        (list_of_size (Gen.int_range 1 120)
           (quad (float_range 0.0 10.0) (float_range 0.0 8.0)
              (float_range (-20.0) 40.0) (int_range (-1) 39))))
    (fun (size, items) ->
      let q = Tsq.create ~size in
      let ready = ref 0.0 and newest_first = ref [] in
      List.for_all
        (fun (dt, service, offset, tie) ->
          ready := !ready +. dt;
          let _, c = Tsq.push q ~ready:!ready ~service in
          newest_first := c :: !newest_first;
          let ring = List.filteri (fun i _ -> i < size) !newest_first in
          let now =
            if tie >= 0 && tie < List.length ring then List.nth ring tie
            else !ready +. offset
          in
          Tsq.occupancy q ~now
          = List.length (List.filter (fun c -> c > now) ring))
        items)

(* ---- Imap ---- *)

(* [prune] keeps every binding above the floor with its value; a
   binding at or below it may go (only once the table is a quarter
   full), and a later [put] still binds. *)
let prop_imap_prune =
  QCheck.Test.make ~name:"Imap prune keeps bindings above the floor" ~count:200
    QCheck.(
      triple (int_range 1 64)
        (list_of_size (Gen.int_range 0 200)
           (pair (int_range 0 300) (float_range 0.0 100.0)))
        (float_range 0.0 100.0))
    (fun (n, puts, floor) ->
      let m = Imap.create n and model = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          Imap.put m k v;
          Hashtbl.replace model k v)
        puts;
      Imap.prune m ~floor;
      let kept =
        Hashtbl.fold
          (fun k v ok ->
            let got = Imap.find_def m k (-1.0) in
            ok && if v > floor then got = v else got = v || got = -1.0)
          model true
      in
      Imap.put m 1000 floor;
      kept && Imap.find_def m 1000 0.0 = floor)

let test_imap_prune_drops () =
  let m = Imap.create 8 in
  for k = 0 to 19 do
    Imap.put m k (float_of_int k)
  done;
  Imap.prune m ~floor:9.5;
  Alcotest.(check int) "bindings above the floor" 10 (Imap.length m);
  Alcotest.(check (float 0.0)) "dropped" (-1.0) (Imap.find_def m 3 (-1.0));
  Alcotest.(check (float 0.0)) "kept" 12.0 (Imap.find_def m 12 (-1.0))

(* ---- Cache ---- *)

let test_cache_hit_after_fill () =
  let c = Cache.create { cname = "t"; size_bytes = 1024; assoc = 2; hit_ns = 1.0 } in
  Alcotest.(check bool) "first is miss" false (Cache.probe c ~addr:0 ~write:false);
  Alcotest.(check bool) "same line hits" true (Cache.probe c ~addr:8 ~write:false)

let test_cache_dirty_eviction () =
  (* direct-mapped 2-set cache: two lines conflicting in set 0 *)
  let c = Cache.create { cname = "t"; size_bytes = 128; assoc = 1; hit_ns = 1.0 } in
  ignore (Cache.probe c ~addr:0 ~write:true);
  ignore (Cache.probe c ~addr:128 ~write:false);
  Alcotest.(check int) "dirty line evicted" 0 (Cache.last_dirty_evict c)

let test_cache_lru () =
  (* 2-way, 1 set (128B): touch A, B, re-touch A, insert C -> B evicted *)
  let c = Cache.create { cname = "t"; size_bytes = 128; assoc = 2; hit_ns = 1.0 } in
  ignore (Cache.probe c ~addr:0 ~write:true) (* A *);
  ignore (Cache.probe c ~addr:128 ~write:true) (* B *);
  ignore (Cache.probe c ~addr:0 ~write:false) (* refresh A *);
  ignore (Cache.probe c ~addr:256 ~write:false) (* C *);
  Alcotest.(check int) "LRU (B) evicted" 128 (Cache.last_dirty_evict c);
  Alcotest.(check bool) "A survives" true (Cache.probe c ~addr:0 ~write:false)

let test_cache_miss_rate () =
  let c = Cache.create { cname = "t"; size_bytes = 1024; assoc = 2; hit_ns = 1.0 } in
  ignore (Cache.probe c ~addr:0 ~write:false);
  ignore (Cache.probe c ~addr:0 ~write:false);
  Alcotest.(check (float 1e-9)) "1 of 2" 0.5 (Cache.miss_rate c)

(* ---- Hierarchy ---- *)

let test_hierarchy_levels () =
  let cfg =
    {
      Config.default with
      levels =
        [
          { cname = "l1"; size_bytes = 128; assoc = 1; hit_ns = 1.0 };
          { cname = "l2"; size_bytes = 1024; assoc = 2; hit_ns = 10.0 };
        ];
    }
  in
  let h = Hierarchy.create cfg in
  (* serving latency, as the engines derive it from a probe's level *)
  let latency addr =
    let code = Hierarchy.probe h ~addr ~write:false in
    if code land Hierarchy.from_memory_bit <> 0 then cfg.mem.read_ns
    else h.hit_ns.(code land Hierarchy.level_mask)
  in
  Alcotest.(check (float 1e-9)) "cold miss: memory latency" cfg.mem.read_ns
    (latency 0);
  Alcotest.(check (float 1e-9)) "l1 hit" 1.0 (latency 0);
  (* evict addr 0 from l1 (conflict), it should then hit in l2 *)
  ignore (latency 128);
  Alcotest.(check (float 1e-9)) "l2 hit" 10.0 (latency 0)

(* ---- engine properties over a fixed synthetic trace ---- *)

let synthetic_trace ~stores ~spread =
  let tr = Trace.create () in
  for i = 0 to stores - 1 do
    Trace.push tr (Event.encode Boundary ~payload:0);
    for _ = 1 to 6 do
      Trace.push tr (Event.encode Alu ~payload:0)
    done;
    Trace.push tr (Event.encode Store ~payload:(i * 8 mod spread));
    Trace.push tr (Event.encode Load ~payload:(i * 64 mod spread))
  done;
  tr

let cycles cfg scheme tr = (Engine.run_trace cfg scheme tr).elapsed_ns

let test_baseline_no_persist_stalls () =
  let tr = synthetic_trace ~stores:2000 ~spread:65536 in
  let st = Engine.run_trace Config.default Engine.Baseline tr in
  Alcotest.(check (float 0.0)) "no pb stall" 0.0 st.stall_pb_ns;
  Alcotest.(check (float 0.0)) "no rbt stall" 0.0 st.stall_rbt_ns;
  Alcotest.(check int) "no nvm writes" 0 st.nvm_writes

let test_cwsp_slower_than_baseline () =
  let tr = synthetic_trace ~stores:2000 ~spread:65536 in
  let b = cycles Config.default Engine.Baseline tr in
  let c = cycles Config.default (Engine.Cwsp Engine.cwsp_full) tr in
  Alcotest.(check bool) "cwsp >= baseline" true (c >= b)

let test_bandwidth_monotonicity () =
  let tr = synthetic_trace ~stores:4000 ~spread:65536 in
  let at bw =
    cycles
      { Config.default with path_bandwidth_gbs = bw }
      (Engine.Cwsp Engine.cwsp_full) tr
  in
  Alcotest.(check bool) "1GB/s >= 4GB/s" true (at 1.0 >= at 4.0 -. 1e-6);
  Alcotest.(check bool) "4GB/s >= 32GB/s" true (at 4.0 >= at 32.0 -. 1e-6)

let test_rbt_monotonicity () =
  let tr = synthetic_trace ~stores:4000 ~spread:65536 in
  let at n =
    cycles { Config.default with rbt_entries = n } (Engine.Cwsp Engine.cwsp_full) tr
  in
  Alcotest.(check bool) "RBT-8 >= RBT-32" true (at 8 >= at 32 -. 1e-6)

let test_wpq_monotonicity () =
  let tr = synthetic_trace ~stores:4000 ~spread:65536 in
  let at n =
    cycles { Config.default with wpq_entries = n } (Engine.Cwsp Engine.cwsp_full) tr
  in
  Alcotest.(check bool) "WPQ-8 >= WPQ-32" true (at 8 >= at 32 -. 1e-6)

let test_drain_slower_than_speculation () =
  let tr = synthetic_trace ~stores:4000 ~spread:65536 in
  let spec = cycles Config.default (Engine.Cwsp Engine.cwsp_full) tr in
  let drain =
    cycles Config.default
      (Engine.Cwsp
         { Engine.cwsp_full with mc_speculation = false; boundary_drain = true })
      tr
  in
  Alcotest.(check bool) "MC speculation helps" true (drain >= spec)

let test_ido_slower_than_cwsp () =
  let tr = synthetic_trace ~stores:4000 ~spread:65536 in
  let c = cycles Config.default (Engine.Cwsp Engine.cwsp_full) tr in
  let i = cycles Config.default Engine.Ido tr in
  Alcotest.(check bool) "ido >= cwsp" true (i >= c)

let test_storage_bytes () =
  Alcotest.(check int) "paper's 176 bytes" 176 (Engine.storage_bytes ~rbt_entries:16)

let test_deterministic_replay () =
  let tr = synthetic_trace ~stores:1000 ~spread:65536 in
  let a = cycles Config.default (Engine.Cwsp Engine.cwsp_full) tr in
  let b = cycles Config.default (Engine.Cwsp Engine.cwsp_full) tr in
  Alcotest.(check (float 0.0)) "bit-identical" a b

(* ---- Cache against a naive LRU model ---- *)

(* Each set is a list of (tag, dirty) ordered most- to least-recently
   used: a hit moves the line to the front, a miss inserts it there and,
   when the set is full, evicts the last line. Returns the hit flag and
   the evicted dirty line address (-1 when none). *)
let model_probe sets ~nsets ~assoc ~addr ~write =
  let line = addr / Cache.line_bytes in
  let set_idx = line mod nsets and tag = line / nsets in
  let ways = sets.(set_idx) in
  match List.assoc_opt tag ways with
  | Some dirty ->
    sets.(set_idx) <- (tag, dirty || write) :: List.remove_assoc tag ways;
    (true, -1)
  | None ->
    let keep, evicted =
      if List.length ways < assoc then (ways, -1)
      else
        let rev = List.rev ways in
        let vtag, vdirty = List.hd rev in
        ( List.rev (List.tl rev),
          if vdirty then ((vtag * nsets) + set_idx) * Cache.line_bytes else -1 )
    in
    sets.(set_idx) <- (tag, write) :: keep;
    (false, evicted)

(* (sets, ways): direct-mapped; set counts that are not a power of two
   and not a multiple of the sets per tag-store page; ways filling a
   whole page *)
let model_geometries =
  [ (64, 1); (1000, 1); (3, 2); (200, 3); (100, 8); (37, 16); (2, 600); (1, 1030) ]

let prop_cache_matches_lru_model =
  let gen =
    QCheck.Gen.(
      oneofl model_geometries >>= fun (nsets, assoc) ->
      let lines = 2 * nsets * assoc in
      list_size (int_range 1 (3 * lines))
        (triple (int_bound (lines - 1)) (int_bound 63) bool)
      >|= fun probes -> (nsets, assoc, probes))
  in
  let print (nsets, assoc, probes) =
    Printf.sprintf "%d sets x %d ways, %d probes" nsets assoc (List.length probes)
  in
  QCheck.Test.make ~name:"Cache matches naive LRU model" ~count:60
    (QCheck.make ~print gen)
    (fun (nsets, assoc, probes) ->
      let c =
        Cache.create
          { cname = "m"; size_bytes = nsets * assoc * Cache.line_bytes; assoc;
            hit_ns = 1.0 }
      in
      let sets = Array.make nsets [] in
      let hits = ref 0 and n = ref 0 in
      List.for_all
        (fun (line, off, write) ->
          let addr = (line * Cache.line_bytes) + off in
          let hit = Cache.probe c ~addr ~write in
          let mhit, mevict = model_probe sets ~nsets ~assoc ~addr ~write in
          incr n;
          if mhit then incr hits;
          let mrate = float_of_int (!n - !hits) /. float_of_int !n in
          hit = mhit
          && Cache.last_dirty_evict c = mevict
          && Cache.miss_rate c = mrate)
        probes)

(* The tag store costs memory in proportion to the lines touched, not
   to the cache's capacity: the 64MB direct-mapped DRAM cache has 1M
   ways, 16MB of tags and LRU clocks if preallocated. *)
let test_cache_footprint_tracks_touched_lines () =
  let before = Gc.allocated_bytes () in
  let c = Cache.create Config.dram_cache in
  for i = 0 to 9_999 do
    let addr = (i * 7919 * 64) land ((1 lsl 20) - 1) in
    ignore (Cache.probe c ~addr ~write:(i land 1 = 0))
  done;
  let bytes = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.0f bytes < 2MB" bytes)
    true
    (bytes < float_of_int (2 * 1024 * 1024))

(* ---- replay outputs pinned ---- *)

(* Every [Stats.t] field, floats in hex so the pin is bit-exact. *)
let stats_fields (s : Stats.t) =
  Printf.sprintf "%h %d %d %d %d %d %d %d %d %h %h %d %d %d %h %h %h %h %h %h %h %h %d"
    s.elapsed_ns s.instructions s.loads s.stores s.ckpt_stores s.boundaries
    s.atomics s.fences s.nvm_reads s.l1_miss_rate s.llc_miss_rate s.nvm_writes
    s.log_writes s.wpq_hits s.stall_pb_ns s.stall_rbt_ns s.stall_drain_ns
    s.stall_sync_ns s.stall_wb_ns s.stall_wpq_hit_ns s.stall_redo_ns
    (Cwsp_util.Stats.Acc.mean s.wb_occupancy)
    (Cwsp_util.Stats.Acc.count s.wb_occupancy)

let pin_schemes =
  let open Cwsp_schemes.Schemes in
  [ baseline ] @ List.map snd fig15_stages
  @ [ ido; capri; replaycache; explicit_flush ]

let pin_platforms =
  [
    ("default", Config.default);
    ("with_l3", Config.with_l3);
    ("psp", Config.psp_no_dram_cache);
    ("fig1-2", Config.fig1_levels 2);
    ("fig1-3", Config.fig1_levels 3);
    ("fig1-4", Config.fig1_levels 4);
    ("fig1-5", Config.fig1_levels 5);
    ("cxl-a", Config.cxl Nvm.cxl_a);
  ]

(* One digest per (workload, platform) over every scheme's stats: a
   simulator change that moves any field of any run fails here. *)
let stats_pins =
  [
    ("radix@default", "cf589f63d7d6249477c8f70b8f2ba0fd");
    ("radix@with_l3", "678b159f99d3f40bcdf09438395be27a");
    ("radix@psp", "deed0ac3e4e336ca750b27494dc833c1");
    ("radix@fig1-2", "c197d10278c0e5f79aafb5751282a314");
    ("radix@fig1-3", "678b159f99d3f40bcdf09438395be27a");
    ("radix@fig1-4", "678b159f99d3f40bcdf09438395be27a");
    ("radix@fig1-5", "678b159f99d3f40bcdf09438395be27a");
    ("radix@cxl-a", "36ce8bbf4bcb2cb24a0ec9fc42ba6edd");
    ("tatp@default", "301ba7612bfe3b8974ccc7bb6f404c30");
    ("tatp@with_l3", "5c09d1aa43d79b421de6fc0ef5814216");
    ("tatp@psp", "e30e8bbcf837c87eced7bd117cb9a7f7");
    ("tatp@fig1-2", "6d68e8e43d20b2e07431fa30e0218f80");
    ("tatp@fig1-3", "041549beaab1ecee49caf93f392aed76");
    ("tatp@fig1-4", "adfca4f698f282cccbd782d76c463426");
    ("tatp@fig1-5", "f49882bd93a7609bd0d41b0b01323e4b");
    ("tatp@cxl-a", "82b95439781ab5a22ba25e962bc14573");
    ("sps@default", "34ec64bd646ec8221ec66e0029a720b6");
    ("sps@with_l3", "d856dcdd9651b26f04ed310c88c66431");
    ("sps@psp", "c09f710b440567dd958c73df79f90c8a");
    ("sps@fig1-2", "bee32299ab3916a273b2956c32ba70a8");
    ("sps@fig1-3", "ebb7d4f88a3f206408c6e237b3ca64c7");
    ("sps@fig1-4", "777164476d63bec127da675b36a7867d");
    ("sps@fig1-5", "3a7fda6c7b4da5295b9806284a1836b2");
    ("sps@cxl-a", "c4b4d9f9ac496ced678e479d7b02e8f2");
  ]

let test_stats_pinned () =
  let got =
    List.concat_map
      (fun wname ->
        let w = Cwsp_workloads.Registry.find_exn wname in
        List.map
          (fun (pname, cfg) ->
            let fields =
              List.map
                (fun s -> stats_fields (Cwsp_core.Api.stats w s cfg))
                pin_schemes
            in
            ( wname ^ "@" ^ pname,
              Digest.to_hex (Digest.string (String.concat "\n" fields)) ))
          pin_platforms)
      [ "radix"; "tatp"; "sps" ]
  in
  Alcotest.(check (list (pair string string))) "stats digests" stats_pins got

(* Every field of a 2-core psweep replay, including the counters only the
   one engine fills on each core: nvm_reads, llc_miss_rate, wb_occupancy
   and wpq_hits. *)
let mp_pin = "fb1fd09bd4cf027f35976eec57146b90"

let test_mp_stats_pinned () =
  let w = Cwsp_workloads.W_parallel.psweep in
  let threads = 2 in
  let prog =
    (Cwsp_compiler.Pipeline.compile ~config:Cwsp_compiler.Pipeline.cwsp
       (w.pbuild ~scale:1 ~threads))
      .prog
  in
  let _, traces = Multi.traces_of_program prog ~threads ~worker:w.worker in
  let r =
    Engine.run_traces Config.default Cwsp_experiments.Exp_mp.cwsp traces
  in
  let fields =
    Printf.sprintf "%h" r.elapsed_ns
    :: Array.to_list (Array.map stats_fields r.per_core)
  in
  let got = Digest.to_hex (Digest.string (String.concat "\n" fields)) in
  Alcotest.(check string) "mp stats digest" mp_pin got

(* The fields a multi-core replay filled before one engine served both
   paths; [mp_grid_pins] holds them across that merge. *)
let mp_fields (s : Stats.t) =
  Printf.sprintf "%h %d %d %d %d %d %d %d %h %d %d %h %h %h %h %h %h %h"
    s.elapsed_ns s.instructions s.loads s.stores s.ckpt_stores s.boundaries
    s.atomics s.fences s.l1_miss_rate s.nvm_writes s.log_writes s.stall_pb_ns
    s.stall_rbt_ns s.stall_drain_ns s.stall_sync_ns s.stall_wb_ns
    s.stall_wpq_hit_ns s.stall_redo_ns

let mp_run cfg ~cwsp traces =
  Engine.run_traces cfg
    (if cwsp then Cwsp_experiments.Exp_mp.cwsp else Engine.Baseline)
    traces

(* [Exp_mp]'s whole grid: one digest per (workload, platform, threads)
   over the baseline and cWSP runs' elapsed time and per-core stats. *)
let mp_grid_pins =
  [
    ("psweep@default@1", "6f815be3fe7e10119385df657b737de2");
    ("psweep@default@2", "563c0fae4730b280f41db772d297efa8");
    ("psweep@default@4", "33c8ed4a32bb426ea238090123b84210");
    ("psweep@default@8", "cfab8c12060c23ad853301e1732b2278");
    ("psweep@4dimm@1", "6f815be3fe7e10119385df657b737de2");
    ("psweep@4dimm@2", "fdc2a05f7a86ab88d3e1e10abcb9d5e3");
    ("psweep@4dimm@4", "eea4cb0e8ec85a2e4cf77f559006daa0");
    ("psweep@4dimm@8", "91ab21f33bcf81fd47afcccec54a6201");
    ("ptx@default@1", "63b306d3712110a0cef73fd269d7e928");
    ("ptx@default@2", "2ca4ab02abbcb599b495968f87a2f483");
    ("ptx@default@4", "3cf411db1942613493ae1af133697f86");
    ("ptx@default@8", "cf25e6edcee846a9ddf9e21c01f9b67c");
    ("ptx@4dimm@1", "63b306d3712110a0cef73fd269d7e928");
    ("ptx@4dimm@2", "2ca4ab02abbcb599b495968f87a2f483");
    ("ptx@4dimm@4", "3cf411db1942613493ae1af133697f86");
    ("ptx@4dimm@8", "d294f0b64389da6987dd939c917fc3e8");
  ]

let test_mp_grid_pinned () =
  let open Cwsp_workloads in
  let got =
    List.concat_map
      (fun (w : W_parallel.t) ->
        List.concat_map
          (fun (pname, cfg) ->
            List.map
              (fun threads ->
                let run ~cwsp config =
                  let prog =
                    (Cwsp_compiler.Pipeline.compile ~config
                       (w.pbuild ~scale:1 ~threads))
                      .prog
                  in
                  let traces =
                    snd
                      (Cwsp_ir.Decode.spmd_traces_of_program prog ~threads
                         ~worker:w.worker)
                  in
                  let r = mp_run cfg ~cwsp traces in
                  Printf.sprintf "%h" r.elapsed_ns
                  :: Array.to_list (Array.map mp_fields r.per_core)
                in
                let fields =
                  run ~cwsp:false Cwsp_compiler.Pipeline.baseline
                  @ run ~cwsp:true Cwsp_compiler.Pipeline.cwsp
                in
                ( Printf.sprintf "%s@%s@%d" w.pname pname threads,
                  Digest.to_hex (Digest.string (String.concat "\n" fields)) ))
              [ 1; 2; 4; 8 ])
          [
            ("default", Config.default);
            ("4dimm", Cwsp_experiments.Exp_mp.provisioned Config.default);
          ])
      [ W_parallel.psweep; W_parallel.ptransactions ]
  in
  Alcotest.(check (list (pair string string))) "mp grid digests" mp_grid_pins got

(* ---- grouped replay ---- *)

(* [run_points] over the pins' grid: per workload and platform, the
   schemes that replay one trace (same compile configuration) run as
   one group, and each point must equal its own replay ([Api.stats],
   shared with the pins below) field for field. *)
let test_run_points_matches_pins () =
  List.iter
    (fun wname ->
      let w = Cwsp_workloads.Registry.find_exn wname in
      List.iter
        (fun (pname, cfg) ->
          let compiles =
            List.sort_uniq compare
              (List.map
                 (fun (s : Cwsp_schemes.Schemes.t) ->
                   Cwsp_compiler.Pipeline.config_name s.s_compile)
                 pin_schemes)
          in
          List.iter
            (fun cc ->
              let group =
                List.filter
                  (fun (s : Cwsp_schemes.Schemes.t) ->
                    Cwsp_compiler.Pipeline.config_name s.s_compile = cc)
                  pin_schemes
              in
              let tr = Cwsp_core.Api.trace w (List.hd group).s_compile in
              let got =
                Engine.run_points
                  (Array.of_list
                     (List.map
                        (fun (s : Cwsp_schemes.Schemes.t) ->
                          (s.s_reconfig cfg, s.s_engine))
                        group))
                  tr
              in
              List.iteri
                (fun i (s : Cwsp_schemes.Schemes.t) ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s@%s %s" wname pname s.s_name)
                    (stats_fields (Cwsp_core.Api.stats w s cfg))
                    (stats_fields got.(i)))
                group)
            compiles)
        pin_platforms)
    [ "radix"; "tatp"; "sps" ]

(* One group mixing Baseline, Capri and cWSP at every Fig. 21
   bandwidth: eighteen timing passes over one cache pass. *)
let test_run_points_mixed_group () =
  let w = Cwsp_workloads.Registry.find_exn "tatp" in
  let tr = Cwsp_core.Api.trace w Cwsp_compiler.Pipeline.cwsp in
  let points =
    List.concat_map
      (fun bw ->
        let cfg = { Config.default with path_bandwidth_gbs = bw } in
        [ (cfg, Engine.Baseline); (cfg, Engine.Capri);
          (cfg, Engine.Cwsp Engine.cwsp_full) ])
      [ 1.0; 2.0; 4.0; 10.0; 20.0; 32.0 ]
  in
  let got = Engine.run_points (Array.of_list points) tr in
  List.iteri
    (fun i (cfg, scheme) ->
      Alcotest.(check string)
        (Printf.sprintf "%s at %gGB/s" (Engine.scheme_name scheme)
           cfg.Config.path_bandwidth_gbs)
        (stats_fields (Engine.run_trace cfg scheme tr))
        (stats_fields got.(i)))
    points

let test_run_points_rejects_levels () =
  let tr = synthetic_trace ~stores:10 ~spread:4096 in
  Alcotest.check_raises "levels differ"
    (Invalid_argument "Engine.run_points: points differ in their cache levels")
    (fun () ->
      ignore
        (Engine.run_points
           [| (Config.default, Engine.Baseline);
              (Config.psp_no_dram_cache, Engine.Baseline) |]
           tr))

let () =
  Alcotest.run "sim"
    [
      ( "tsq",
        [
          qtest prop_tsq_fifo_completions_monotone;
          qtest prop_tsq_admit_after_ready;
          Alcotest.test_case "backpressure" `Quick test_tsq_backpressure;
          Alcotest.test_case "occupancy bounded" `Quick test_tsq_occupancy_bounded;
          qtest prop_tsq_occupancy_matches_scan;
        ] );
      ( "imap",
        [
          qtest prop_imap_prune;
          Alcotest.test_case "prune drops at or below the floor" `Quick
            test_imap_prune_drops;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit after fill" `Quick test_cache_hit_after_fill;
          Alcotest.test_case "dirty eviction" `Quick test_cache_dirty_eviction;
          Alcotest.test_case "lru" `Quick test_cache_lru;
          Alcotest.test_case "miss rate" `Quick test_cache_miss_rate;
          qtest prop_cache_matches_lru_model;
          Alcotest.test_case "footprint tracks touched lines" `Quick
            test_cache_footprint_tracks_touched_lines;
        ] );
      ("hierarchy", [ Alcotest.test_case "levels" `Quick test_hierarchy_levels ]);
      ( "engine",
        [
          Alcotest.test_case "baseline free" `Quick test_baseline_no_persist_stalls;
          Alcotest.test_case "cwsp >= baseline" `Quick test_cwsp_slower_than_baseline;
          Alcotest.test_case "bandwidth monotone" `Quick test_bandwidth_monotonicity;
          Alcotest.test_case "rbt monotone" `Quick test_rbt_monotonicity;
          Alcotest.test_case "wpq monotone" `Quick test_wpq_monotonicity;
          Alcotest.test_case "speculation helps" `Quick test_drain_slower_than_speculation;
          Alcotest.test_case "ido slower" `Quick test_ido_slower_than_cwsp;
          Alcotest.test_case "rbt storage = 176B" `Quick test_storage_bytes;
          Alcotest.test_case "deterministic" `Quick test_deterministic_replay;
        ] );
      ( "grouped replay",
        [
          Alcotest.test_case "equals per-point replay on the pins' grid" `Quick
            test_run_points_matches_pins;
          Alcotest.test_case "baseline, capri, cwsp at fig21 bandwidths" `Quick
            test_run_points_mixed_group;
          Alcotest.test_case "mismatched levels raise" `Quick
            test_run_points_rejects_levels;
        ] );
      ( "pins",
        [
          Alcotest.test_case "stats per scheme and platform" `Quick test_stats_pinned;
          Alcotest.test_case "multi-core stats" `Quick test_mp_stats_pinned;
          Alcotest.test_case "multi-core grid" `Quick test_mp_grid_pinned;
        ] );
    ]
