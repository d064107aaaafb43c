(** Explicit-persistency head-to-head: the certified flush/pfence binary
    ([explicit-flush]: [Persist_insert] placements proven sufficient and
    minimal by the [Persist_check] tier) against the implicit cWSP
    hardware on the same regions. The gap is the paper's implicit-
    persistence argument measured end to end: every flush/pfence the
    compiler must issue without the persist path is on the critical
    path, while cWSP persists committed stores off it. *)

let title = "Explicit persistency: certified flush/pfence vs cWSP"

let series =
  [
    Exp.slowdown_series "cWSP" Cwsp_schemes.Schemes.cwsp Cwsp_sim.Config.default;
    Exp.slowdown_series "ExplicitFlush" Cwsp_schemes.Schemes.explicit_flush
      Cwsp_sim.Config.default;
  ]

let plan () = Exp.plan series

let render () =
  Exp.banner title;
  match Exp.per_workload_table ~series () with
  | [ cwsp; explicit_ ] ->
    Printf.printf
      "cWSP %.2f vs explicit-flush %.2f overall (%.2fx implicit advantage)\n"
      cwsp explicit_ (explicit_ /. cwsp);
    explicit_ /. cwsp
  | _ -> assert false
