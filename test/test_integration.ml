(* Integration tests: the reproduced shapes of the paper's headline
   results, asserted on a representative subset so the suite stays fast.
   The full tables print from bench/main.exe. *)

open Cwsp_sim
open Cwsp_schemes

let w = Cwsp_workloads.Registry.find_exn

let slow ?(cfg = Config.default) name scheme =
  Cwsp_core.Api.slowdown (w name) ~scheme cfg

(* Fig 13 shape: low single/low-double-digit overhead for compute suites *)
let test_fig13_shape () =
  let names = [ "gobmk"; "namd"; "sjeng"; "leela"; "xsbench"; "soplex" ] in
  let gm = Cwsp_util.Stats.gmean (List.map (fun n -> slow n Schemes.cwsp) names) in
  Alcotest.(check bool)
    (Printf.sprintf "compute gmean %.3f in [1.0, 1.12]" gm)
    true
    (gm >= 1.0 && gm <= 1.12)

let test_fig13_splash_worse () =
  let splash = [ "radix"; "water-ns"; "lu-cg" ] in
  let cpu = [ "gobmk"; "namd"; "sjeng" ] in
  let gms names = Cwsp_util.Stats.gmean (List.map (fun n -> slow n Schemes.cwsp) names) in
  Alcotest.(check bool) "SPLASH3 > CPU2006 overhead" true (gms splash > gms cpu)

(* Fig 14 shape: cWSP < Capri at 4GB/s; ReplayCache far worse; Capri
   catches up with the ideal path *)
let test_fig14_shape () =
  let bw b = { Config.default with path_bandwidth_gbs = b } in
  let names = [ "radix"; "water-ns"; "p" ] in
  let gm scheme cfg =
    Cwsp_util.Stats.gmean (List.map (fun n -> slow ~cfg n scheme) names)
  in
  let cwsp4 = gm Schemes.cwsp (bw 4.0) in
  let capri4 = gm Schemes.capri (bw 4.0) in
  let capri32 = gm Schemes.capri (bw 32.0) in
  let rc = gm Schemes.replaycache (bw 4.0) in
  Alcotest.(check bool)
    (Printf.sprintf "capri4 (%.2f) > cwsp4 (%.2f)" capri4 cwsp4)
    true (capri4 > cwsp4);
  Alcotest.(check bool)
    (Printf.sprintf "capri32 (%.2f) < capri4 (%.2f)" capri32 capri4)
    true (capri32 < capri4);
  Alcotest.(check bool)
    (Printf.sprintf "replaycache (%.2f) worst" rc)
    true
    (rc > capri4)

(* Fig 18 shape: ideal PSP much worse than cWSP on memory-intensive apps *)
let test_fig18_shape () =
  let names = [ "lbm"; "xsbench"; "lulesh" ] in
  let gm scheme =
    Cwsp_util.Stats.gmean (List.map (fun n -> slow n scheme) names)
  in
  let psp = gm Schemes.psp_ideal and cwsp = gm Schemes.cwsp in
  Alcotest.(check bool)
    (Printf.sprintf "psp %.2f vs cwsp %.2f: gap > 1.15x" psp cwsp)
    true
    (psp /. cwsp > 1.15)

(* Fig 19 shape: region sizes in the tens of instructions *)
let test_fig19_shape () =
  let lens =
    List.map
      (fun n ->
        let tr = Cwsp_core.Api.trace (w n) Cwsp_compiler.Pipeline.cwsp in
        let ls = Cwsp_interp.Trace.region_lengths tr in
        float_of_int (List.fold_left ( + ) 0 ls) /. float_of_int (List.length ls))
      [ "gobmk"; "lbm"; "radix"; "tatp" ]
  in
  let avg = Cwsp_util.Stats.mean lens in
  Alcotest.(check bool)
    (Printf.sprintf "avg region length %.1f in [8, 120]" avg)
    true
    (avg >= 8.0 && avg <= 120.0)

(* Fig 21 shape: overhead falls with persist-path bandwidth and flattens *)
let test_fig21_shape () =
  let at b =
    slow ~cfg:{ Config.default with path_bandwidth_gbs = b } "radix" Schemes.cwsp
  in
  let s1 = at 1.0 and s4 = at 4.0 and s10 = at 10.0 and s32 = at 32.0 in
  Alcotest.(check bool) "1 >= 4" true (s1 >= s4 -. 0.001);
  Alcotest.(check bool) "4 >= 10" true (s4 >= s10 -. 0.001);
  Alcotest.(check bool) "flat beyond 10" true (s10 -. s32 < 0.05)

(* Fig 22 shape: RBT 8 worse than 32 on short-region suites *)
let test_fig22_shape () =
  let at n =
    slow ~cfg:{ Config.default with rbt_entries = n } "radix" Schemes.cwsp
  in
  Alcotest.(check bool) "rbt8 >= rbt32" true (at 8 >= at 32 -. 0.001)

(* Fig 26 shape: WPQ 8 worse than 24 for write-dense suites *)
let test_fig26_shape () =
  let at n =
    slow ~cfg:{ Config.default with wpq_entries = n } "water-ns" Schemes.cwsp
  in
  Alcotest.(check bool) "wpq8 >= wpq24" true (at 8 >= at 24 -. 0.001)

(* Fig 1 shape: deeper hierarchies shrink the PMEM/DRAM gap *)
let test_fig1_shape () =
  let ratio levels name =
    let base = Config.fig1_levels levels in
    let pm =
      Cwsp_core.Api.stats (w name) Schemes.baseline
        { base with mem = Nvm.cxl_pmem }
    in
    let dr =
      Cwsp_core.Api.stats (w name) Schemes.baseline
        { base with mem = Nvm.cxl_dram }
    in
    Stats.slowdown pm ~baseline:dr
  in
  List.iter
    (fun name ->
      let r2 = ratio 2 name and r5 = ratio 5 name in
      Alcotest.(check bool)
        (Printf.sprintf "%s: 5-level (%.2f) <= 2-level (%.2f)" name r5 r2)
        true (r5 <= r2 +. 0.01))
    [ "lbm"; "lulesh"; "libquan" ]

(* Fig 27 shape: overhead stays moderate across NVM technologies *)
let test_fig27_shape () =
  List.iter
    (fun (tech : Nvm.t) ->
      let s =
        slow ~cfg:{ Config.default with mem = tech } "lbm" Schemes.cwsp
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s overhead %.2f < 1.3" tech.mem_name s)
        true (s < 1.3))
    Nvm.all_techs

(* hardware overhead table *)
let test_hw_overhead () =
  Alcotest.(check int) "176 bytes" 176 (Cwsp_experiments.Hw_overhead.render ())

(* experiment registry covers every figure *)
let test_experiment_index_complete () =
  let ids = List.map (fun (e : Cwsp_experiments.Index.entry) -> e.id)
      Cwsp_experiments.Index.all
  in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " registered") true (List.mem id ids))
    [ "fig1"; "fig6"; "fig8"; "fig13"; "fig14"; "fig15"; "fig17"; "fig18";
      "fig19"; "fig20"; "fig21"; "fig22"; "fig23"; "fig24"; "fig25"; "fig26";
      "fig27"; "hw"; "recovery" ]

let () =
  Alcotest.run "integration"
    [
      ( "shapes",
        [
          Alcotest.test_case "fig13 compute gmean" `Slow test_fig13_shape;
          Alcotest.test_case "fig13 splash worse" `Slow test_fig13_splash_worse;
          Alcotest.test_case "fig14 ordering" `Slow test_fig14_shape;
          Alcotest.test_case "fig18 psp gap" `Slow test_fig18_shape;
          Alcotest.test_case "fig19 region sizes" `Slow test_fig19_shape;
          Alcotest.test_case "fig21 bandwidth" `Slow test_fig21_shape;
          Alcotest.test_case "fig22 rbt" `Slow test_fig22_shape;
          Alcotest.test_case "fig26 wpq" `Slow test_fig26_shape;
          Alcotest.test_case "fig1 hierarchy" `Slow test_fig1_shape;
          Alcotest.test_case "fig27 nvm tech" `Slow test_fig27_shape;
        ] );
      ( "meta",
        [
          Alcotest.test_case "hw overhead" `Quick test_hw_overhead;
          Alcotest.test_case "index complete" `Quick test_experiment_index_complete;
        ] );
    ]
