(** Figure 14: cWSP against prior WSP schemes — ReplayCache and Capri —
    at 4GB/s (practical) and 32GB/s (ideal) persist-path bandwidth.
    Paper: ReplayCache ~4.3x, Capri-4GB ~1.27, cWSP-4GB ~1.06; Capri only
    matches cWSP with the ideal path. *)

open Cwsp_sim
open Cwsp_schemes

let title = "Fig 14: cWSP vs ReplayCache and Capri (4GB/s and 32GB/s)"

let cfg_bw bw = { Config.default with path_bandwidth_gbs = bw }

let series =
  [
    Exp.slowdown_series "ReplayCache" Schemes.replaycache (cfg_bw 4.0);
    Exp.slowdown_series "Capri-4GB" Schemes.capri (cfg_bw 4.0);
    Exp.slowdown_series "Capri-32GB" Schemes.capri (cfg_bw 32.0);
    Exp.slowdown_series "cWSP-4GB" Schemes.cwsp (cfg_bw 4.0);
    Exp.slowdown_series "cWSP-32GB" Schemes.cwsp (cfg_bw 32.0);
  ]

let plan () = Exp.plan series

(* headline: the cWSP-4GB overall gmean (the paper's ~1.06 claim) *)
let render () =
  Exp.banner title;
  List.nth (Exp.per_suite_table ~series ()) 3
