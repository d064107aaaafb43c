(** Stall-attribution breakdown (extension): where cWSP's overhead goes,
    per suite — the quantitative companion to the paper's qualitative
    claims (persist-path/PB backpressure for write-dense suites, RBT
    admission for short-region suites, sync drains for transactional
    ones, instruction bloat from boundaries and surviving checkpoints
    everywhere). Values are percent of the cWSP run's total time. *)

open Cwsp_sim
open Cwsp_core

let title = "Breakdown (extension): cWSP stall attribution per suite"

let pct part total = 100.0 *. part /. total

let plan () =
  List.concat_map
    (fun w -> Job.slowdown w ~scheme:Cwsp_schemes.Schemes.cwsp Config.default)
    Cwsp_workloads.Registry.all

let row_of (w : Cwsp_workloads.Defs.t) =
  let st = Api.stats w Cwsp_schemes.Schemes.cwsp Config.default in
  let base = Api.stats w Cwsp_schemes.Schemes.baseline Config.default in
  let t = st.elapsed_ns in
  (* instruction bloat: extra instructions the instrumented binary
     executes, charged at one cycle each *)
  let bloat =
    float_of_int (st.instructions - base.instructions) *. Config.default.cycle_ns
  in
  ( pct bloat t,
    pct st.stall_pb_ns t,
    pct st.stall_rbt_ns t,
    pct st.stall_sync_ns t,
    pct (st.stall_wb_ns +. st.stall_wpq_hit_ns) t )

let render () =
  Exp.banner title;
  let rows =
    List.filter_map
      (fun suite ->
        let ws = Cwsp_workloads.Registry.by_suite suite in
        if ws = [] then None
        else begin
          let parts = List.map row_of ws in
          let avg f =
            Cwsp_util.Stats.mean (List.map f parts) |> Printf.sprintf "%.2f%%"
          in
          Some
            [
              Cwsp_workloads.Defs.suite_name suite;
              avg (fun (a, _, _, _, _) -> a);
              avg (fun (_, b, _, _, _) -> b);
              avg (fun (_, _, c, _, _) -> c);
              avg (fun (_, _, _, d, _) -> d);
              avg (fun (_, _, _, _, e) -> e);
            ]
        end)
      Cwsp_workloads.Defs.all_suites
  in
  Cwsp_util.Table.print
    ~headers:[ "suite"; "instr bloat"; "PB/path"; "RBT"; "sync drain"; "WB+WPQ" ]
    rows;
  rows
