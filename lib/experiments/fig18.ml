(** Figure 18: cWSP against ideal partial-system persistence
    (BBB/eADR/LightPC — no persist cost, but the DRAM cache cannot be
    enabled). Paper: cWSP ~3%, ideal PSP ~52% slowdown on the
    memory-intensive subset — the case for whole-system persistence. *)

open Cwsp_workloads

let title = "Fig 18: cWSP vs ideal PSP (BBB/eADR/LightPC)"

let series =
  let cfg = Cwsp_sim.Config.default in
  [
    Exp.slowdown_series "cWSP" Cwsp_schemes.Schemes.cwsp cfg;
    Exp.slowdown_series "idealPSP" Cwsp_schemes.Schemes.psp_ideal cfg;
  ]

let plan () = Exp.plan ~subset:Registry.memory_intensive series

let render () =
  Exp.banner title;
  Exp.per_workload_table ~subset:Registry.memory_intensive ~series ()
