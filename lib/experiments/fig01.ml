(** Figure 1 (motivation): normalized slowdown of CXL PMEM main memory
    against CXL DRAM main memory, as the cache hierarchy deepens from 2 to
    5 levels (the 5th is the DRAM cache). Paper: 2.14x at 2 levels
    shrinking to 1.34x at 5 levels, over memory-intensive applications.
    No persistence scheme is involved — this is the case for WSP's
    deep-hierarchy premise. *)

open Cwsp_sim
open Cwsp_core
open Cwsp_workloads

let title = "Fig 1: CXL-PMEM vs CXL-DRAM slowdown, 2..5 cache levels"

let baseline = Cwsp_schemes.Schemes.baseline

let configs_at levels =
  let base = Config.fig1_levels levels in
  ({ base with mem = Nvm.cxl_pmem }, { base with mem = Nvm.cxl_dram })

let series =
  List.map
    (fun levels ->
      let pmem_cfg, dram_cfg = configs_at levels in
      {
        Exp.col = Printf.sprintf "%d levels" levels;
        points =
          (fun w ->
            [ Job.stats w baseline pmem_cfg; Job.stats w baseline dram_cfg ]);
        eval =
          (fun w ->
            Stats.slowdown
              (Api.stats w baseline pmem_cfg)
              ~baseline:(Api.stats w baseline dram_cfg));
      })
    [ 2; 3; 4; 5 ]

let plan () = Exp.plan ~subset:Registry.memory_intensive series

let render () =
  Exp.banner title;
  Exp.per_workload_table ~subset:Registry.memory_intensive ~series ()
