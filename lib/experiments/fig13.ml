(** Figure 13: normalized slowdown of cWSP to the baseline at 4GB/s
    persist-path bandwidth. Paper: 6% average; SPLASH3 is the worst suite
    (short regions, sequential/repeated writes). *)

let title = "Fig 13: cWSP slowdown vs baseline (4GB/s persist path)"

let series =
  [
    Exp.slowdown_series "cWSP" Cwsp_schemes.Schemes.cwsp Cwsp_sim.Config.default;
  ]

let plan () = Exp.plan series

let render () =
  Exp.banner title;
  match Exp.per_workload_table ~series () with
  | [ overall ] ->
    Printf.printf "paper: 1.06 overall; measured: %.2f\n" overall;
    overall
  | _ -> assert false
