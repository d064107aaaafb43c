(** Figure 24: sensitivity to L1D write-buffer size (8/16/32 entries).
    Paper: flat — the persist path is fast enough that delayed writebacks
    never back the WB up. *)

open Cwsp_sim

let title = "Fig 24: L1D write-buffer size sweep"

let series =
  Exp.cwsp_sweep_series
    (List.map
       (fun n ->
         (Printf.sprintf "WB-%d" n, { Config.default with wb_entries = n }))
       [ 8; 16; 32 ])

let plan () = Exp.plan series

(* headline: the default 32-entry point *)
let render () =
  Exp.banner title;
  List.nth (Exp.per_suite_table ~series ()) 2
