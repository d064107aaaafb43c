(** Section IX-N: hardware storage overhead.
    Paper: cWSP needs only the 16-entry x 11-byte RBT = 176 bytes per
    core (the PB reuses Intel's existing 1KB write-combining buffer),
    versus Capri's (N+1) x M x 18KB — 54KB per core with one MC, 88MB
    for a 128-core, 12-MC EPYC. *)

let title = "Hardware storage overhead (Section IX-N)"

let cwsp_bytes ~rbt_entries = Cwsp_sim.Engine.storage_bytes ~rbt_entries

let capri_bytes_per_core ~n_mcs = (n_mcs + 1) * 18 * 1024

(* pure arithmetic — no simulation points to declare *)
let plan () : Cwsp_core.Job.t list = []

let render () =
  Exp.banner title;
  let cwsp = cwsp_bytes ~rbt_entries:Cwsp_sim.Config.default.rbt_entries in
  let capri2 = capri_bytes_per_core ~n_mcs:2 in
  Cwsp_util.Table.print
    ~headers:[ "scheme"; "per-core bytes"; "128-core 12-MC total" ]
    [
      [ "cWSP (16-entry RBT)"; string_of_int cwsp;
        Printf.sprintf "%d KB" (cwsp * 128 / 1024) ];
      [ "Capri (2 MCs)"; string_of_int capri2;
        Printf.sprintf "%d MB" ((12 + 1) * 18 * 128 / 1024) ];
    ];
  Printf.printf "paper: 176 bytes vs 54KB (346x); measured ratio: %.0fx\n"
    (float_of_int (capri_bytes_per_core ~n_mcs:1) /. float_of_int cwsp);
  cwsp
