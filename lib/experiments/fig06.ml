(** Figure 6: average occupancy of the L1D write buffer, baseline vs cWSP.
    Paper: both average ~0.39 entries — delaying WB writebacks for
    stale-read prevention puts no pressure on the WB. *)

open Cwsp_sim

let title = "Fig 6: average L1D write-buffer occupancy"

let occupancy (st : Stats.t) = Cwsp_util.Stats.Acc.mean st.wb_occupancy

let series =
  [
    Exp.stats_series "baseline" Cwsp_schemes.Schemes.baseline Config.default
      occupancy;
    Exp.stats_series "cWSP" Cwsp_schemes.Schemes.cwsp Config.default occupancy;
  ]

let plan () = Exp.plan series

let render () =
  Exp.banner title;
  Exp.per_workload_table ~agg:Exp.Mean ~series ()
