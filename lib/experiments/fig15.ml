(** Figure 15: cumulative impact of each cWSP optimization.
    Paper: +RegionFormation 4%, +PersistPath 10%, +MCSpeculation /
    +WBDelay / +WPQDelay flat, +Pruning drops to 6% overall. *)

let title = "Fig 15: per-optimization ablation (cumulative stages)"

let series =
  List.map
    (fun (name, scheme) ->
      Exp.slowdown_series name scheme Cwsp_sim.Config.default)
    Cwsp_schemes.Schemes.fig15_stages

let plan () = Exp.plan series

(* headline: the final cumulative stage (+Pruning — the paper's 6%) *)
let render () =
  Exp.banner title;
  let overall = Exp.per_suite_table ~series () in
  List.nth overall (List.length overall - 1)
