(** Figure 21: sensitivity to persist-path bandwidth (1..32 GB/s).
    Paper: overhead falls with bandwidth and flattens beyond 10GB/s —
    the 8-byte persist granularity keeps the demand low. *)

open Cwsp_sim

let title = "Fig 21: persist-path bandwidth sweep"

let series =
  Exp.cwsp_sweep_series
    (List.map
       (fun bw ->
         ( Printf.sprintf "%gGB" bw,
           { Config.default with path_bandwidth_gbs = bw } ))
       [ 1.0; 2.0; 4.0; 10.0; 20.0; 32.0 ])

let plan () = Exp.plan series

(* headline: the default 4GB/s point *)
let render () =
  Exp.banner title;
  List.nth (Exp.per_suite_table ~series ()) 2
