(** Figure 22: sensitivity to RBT size (8/16/32 entries).
    Paper: 11% at 8 entries (short SPLASH3 regions stall), 6% at 16,
    4% at 32. *)

open Cwsp_sim

let title = "Fig 22: region boundary table (RBT) size sweep"

let series =
  Exp.cwsp_sweep_series
    (List.map
       (fun n ->
         (Printf.sprintf "RBT-%d" n, { Config.default with rbt_entries = n }))
       [ 8; 16; 32 ])

let plan () = Exp.plan series

(* headline: the default 16-entry point *)
let render () =
  Exp.banner title;
  List.nth (Exp.per_suite_table ~series ()) 1
