(** Table I + Figure 17: cWSP on CXL-attached NVM devices A-D.
    Paper: ~4% average overhead regardless of CXL device speed, with
    slightly *higher* normalized overhead on faster devices (the baseline
    benefits more from the speedup than cWSP does). *)

open Cwsp_sim
open Cwsp_workloads

let title = "Tab 1 + Fig 17: cWSP over CXL memory devices"

let print_table1 () =
  Cwsp_util.Table.print
    ~headers:[ "device"; "read ns"; "write ns"; "write GB/s" ]
    (List.map
       (fun (d : Nvm.t) ->
         [ d.mem_name; Printf.sprintf "%.0f" d.read_ns;
           Printf.sprintf "%.0f" d.write_ns;
           Printf.sprintf "%.1f" d.write_bw_gbs ])
       Nvm.cxl_devices)

let series =
  List.map
    (fun (d : Nvm.t) ->
      Exp.slowdown_series (d.mem_name ^ "-cWSP") Cwsp_schemes.Schemes.cwsp
        (Config.cxl d))
    Nvm.cxl_devices

let plan () = Exp.plan ~subset:Registry.memory_intensive series

(* headline: gmean across all devices (the paper's ~4% regardless of
   device speed) *)
let render () =
  Exp.banner title;
  print_table1 ();
  print_newline ();
  Cwsp_util.Stats.gmean
    (Exp.per_workload_table ~subset:Registry.memory_intensive ~series ())
