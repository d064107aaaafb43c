(** Figure 20: cWSP on a deeper SRAM hierarchy (private L2 + shared L3 in
    front of the DRAM cache). Paper: 8% average overhead. *)

let title = "Fig 20: cWSP slowdown with an added L3"

let series =
  [
    Exp.slowdown_series "cWSP-L3" Cwsp_schemes.Schemes.cwsp
      Cwsp_sim.Config.with_l3;
  ]

let plan () = Exp.plan series

let render () =
  Exp.banner title;
  List.hd (Exp.per_workload_table ~series ())
