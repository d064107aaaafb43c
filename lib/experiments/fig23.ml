(** Figure 23: sensitivity to persist-path latency (10..40ns).
    Paper: flat — region execution overlaps the path latency thanks to
    the RBT. *)

open Cwsp_sim

let title = "Fig 23: persist-path latency sweep"

let series =
  Exp.cwsp_sweep_series
    (List.map
       (fun lat ->
         (Printf.sprintf "Lat-%g" lat, { Config.default with path_latency_ns = lat }))
       [ 10.0; 20.0; 30.0; 40.0 ])

let plan () = Exp.plan series

(* headline: the default 20ns point *)
let render () =
  Exp.banner title;
  List.nth (Exp.per_suite_table ~series ()) 1
