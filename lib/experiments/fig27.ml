(** Figure 27: sensitivity to NVM technology (PMEM / STT-MRAM / ReRAM).
    Paper: ~8% regardless of technology; faster NVM shows marginally
    higher *normalized* overhead because the baseline speeds up more. *)

open Cwsp_sim

let title = "Fig 27: NVM technology sweep"

let series =
  Exp.cwsp_sweep_series
    (List.map
       (fun (tech : Nvm.t) -> (tech.mem_name, { Config.default with mem = tech }))
       Nvm.all_techs)

let plan () = Exp.plan series

(* headline: the default PMEM point *)
let render () =
  Exp.banner title;
  List.hd (Exp.per_suite_table ~series ())
