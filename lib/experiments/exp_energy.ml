(** Energy experiment (extension): residual backup energy and NVM write
    energy per scheme — the quantitative form of the paper's argument
    that eADR/Capri-style JIT checkpointing is unsustainable
    (Sections I, II-D) while cWSP only needs Intel ADR's existing
    WPQ guarantee. *)

open Cwsp_sim

let title = "Energy (extension): backup requirement and NVM write energy"

(* analytic model over the configuration — no simulation points *)
let plan () : Cwsp_core.Job.t list = []

let render () =
  Exp.banner title;
  let cfg = Config.default in
  print_endline "residual (battery/capacitor) requirement on power failure:";
  Cwsp_util.Table.print
    ~headers:[ "scheme"; "volatile bytes"; "backup energy" ]
    (List.map
       (fun (b : Energy.backup) ->
         [
           b.scheme;
           (if b.volatile_bytes < 4096 then Printf.sprintf "%d B" b.volatile_bytes
            else Printf.sprintf "%d KB" (b.volatile_bytes / 1024));
           Printf.sprintf "%.2f uJ" b.backup_uj;
         ])
       (Energy.all_backups cfg));
  print_newline ();
  print_endline "steady-state NVM write energy:";
  Cwsp_util.Table.print
    ~headers:[ "scheme"; "bytes/store"; "uJ per 1000 stores" ]
    (List.map
       (fun (w : Energy.write_energy) ->
         [
           w.we_scheme;
           Printf.sprintf "%.0f" w.bytes_per_store;
           Printf.sprintf "%.2f" w.uj_per_kstore;
         ])
       Energy.all_write_energies);
  let cwsp = (Energy.cwsp_backup cfg).volatile_bytes in
  let eadr = (Energy.eadr_backup cfg).volatile_bytes in
  Printf.printf
    "\ncWSP's persistence domain is %dx smaller than eADR's flush set\n"
    (eadr / max 1 cwsp);
  eadr / max 1 cwsp


let ratio () =
  let cfg = Config.default in
  (Energy.eadr_backup cfg).volatile_bytes
  / max 1 (Energy.cwsp_backup cfg).volatile_bytes
