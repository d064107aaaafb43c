(** Figure 8: WPQ hits per one million instructions under cWSP.
    Paper: 0.98 on average — loads that reach main memory while the
    target word is still pending in a WPQ are vanishingly rare, which is
    why delaying them (Section V-A2) is free. *)

open Cwsp_sim

let title = "Fig 8: WPQ hits per 1M instructions (cWSP)"

let series =
  [
    Exp.stats_series "WPQ-HPMI" Cwsp_schemes.Schemes.cwsp Config.default
      Stats.wpq_hits_per_minstr;
  ]

let plan () = Exp.plan series

let render () =
  Exp.banner title;
  Exp.per_workload_table ~agg:Exp.Mean ~series ()
