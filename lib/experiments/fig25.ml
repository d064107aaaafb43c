(** Figure 25: sensitivity to persist-buffer size (20/40/50/60 entries).
    Paper: insensitive; only 7% even at 20 entries. *)

open Cwsp_sim

let title = "Fig 25: persist buffer (PB) size sweep"

let series =
  Exp.cwsp_sweep_series
    (List.map
       (fun n ->
         (Printf.sprintf "PB-%d" n, { Config.default with pb_entries = n }))
       [ 20; 40; 50; 60 ])

let plan () = Exp.plan series

(* headline: the default 50-entry point *)
let render () =
  Exp.banner title;
  List.nth (Exp.per_suite_table ~series ()) 2
