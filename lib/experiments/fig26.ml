(** Figure 26: sensitivity to per-MC WPQ size (8/16/24/32 entries).
    Paper: 11% average at 8 entries (up to 31% for write-heavy SPLASH3),
    stable from 24 up. *)

open Cwsp_sim

let title = "Fig 26: NVM WPQ size sweep"

let series =
  Exp.cwsp_sweep_series
    (List.map
       (fun n ->
         (Printf.sprintf "WPQ-%d" n, { Config.default with wpq_entries = n }))
       [ 8; 16; 24; 32 ])

let plan () = Exp.plan series

(* headline: the default 24-entry point *)
let render () =
  Exp.banner title;
  List.nth (Exp.per_suite_table ~series ()) 2
