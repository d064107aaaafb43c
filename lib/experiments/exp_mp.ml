(** Multi-core experiment (extension): cWSP overhead as core count grows.

    The paper's platform has 8 cores sharing two memory controllers; this
    experiment reproduces the systemic effect — more cores multiply
    persist traffic into the same shared WPQs and persist-path bandwidth,
    so cWSP's overhead grows with the thread count while staying moderate
    thanks to MC speculation. Sync-heavy workloads additionally pay
    persist drains at every critical-section boundary (Section VIII).

    [Engine.run_traces] consumes per-thread traces rather than [Api]'s
    single-threaded memo pipeline, so this driver has no shareable plan
    points; its cells compute during render.

    Known modeling gap: multi-core cWSP runs without stage 5 of Fig. 15
    ([wpq_delay = false]): loads that hit a pending WPQ entry would be
    counted but not delayed. No load on this grid hits one, so the flag
    changes no output today; a workload that does would need the gap
    closed before its numbers are compared with the single-core
    figures. *)

let title = "MP (extension): cWSP overhead vs core count (shared MCs)"

(* a server provisions more NVM DIMMs per MC than a single-DIMM testbed:
   the provisioned variant quadruples the media write bandwidth *)
let provisioned (cfg : Cwsp_sim.Config.t) =
  { cfg with mem = { cfg.mem with write_bw_gbs = cfg.mem.write_bw_gbs *. 4.0 } }

(* the full cWSP hardware minus stage 5 (the modeling gap above) *)
let cwsp = Cwsp_sim.Engine.(Cwsp { cwsp_full with wpq_delay = false })

let slowdown ?(cfg = Cwsp_sim.Config.default) (w : Cwsp_workloads.W_parallel.t)
    ~threads =
  let compile config =
    (Cwsp_compiler.Pipeline.compile ~config (w.pbuild ~scale:1 ~threads)).prog
  in
  let traces prog =
    snd (Cwsp_ir.Decode.spmd_traces_of_program prog ~threads ~worker:w.worker)
  in
  let base =
    Cwsp_sim.Engine.run_traces cfg Cwsp_sim.Engine.Baseline
      (traces (compile Cwsp_compiler.Pipeline.baseline))
  in
  let st =
    Cwsp_sim.Engine.run_traces cfg cwsp
      (traces (compile Cwsp_compiler.Pipeline.cwsp))
  in
  st.elapsed_ns /. base.elapsed_ns

let plan () : Cwsp_core.Job.t list = []

let render () =
  Exp.banner title;
  let thread_counts = [ 1; 2; 4; 8 ] in
  let values =
    List.concat_map
      (fun (w : Cwsp_workloads.W_parallel.t) ->
        [
          ( w.pname ^ " (1 DIMM/MC)",
            true,
            List.map (fun threads -> slowdown w ~threads) thread_counts );
          ( w.pname ^ " (4 DIMM/MC)",
            false,
            List.map
              (fun threads ->
                slowdown ~cfg:(provisioned Cwsp_sim.Config.default) w ~threads)
              thread_counts );
        ])
      [
        Cwsp_workloads.W_parallel.psweep;
        Cwsp_workloads.W_parallel.ptransactions;
      ]
  in
  Cwsp_util.Table.print
    ~headers:("workload" :: List.map (Printf.sprintf "%d cores") thread_counts)
    (List.map
       (fun (name, _, vs) -> name :: List.map Cwsp_util.Table.f2 vs)
       values);
  (* headline: gmean of the 8-core single-DIMM slowdowns (the paper's
     testbed provisioning) *)
  Cwsp_util.Stats.gmean
    (List.filter_map
       (fun (_, single_dimm, vs) ->
         if single_dimm then Some (List.nth vs 3) else None)
       values)
