(** Figure 19: average number of dynamic instructions per idempotent
    region. Paper: 38.15 on average; with a 16-entry RBT the persist
    latency of the oldest region overlaps ~572 instructions of
    execution. *)

let title = "Fig 19: dynamic instructions per region (cWSP binary)"

let avg lens =
  match lens with
  | [] -> 1.0
  | _ ->
    float_of_int (List.fold_left ( + ) 0 lens) /. float_of_int (List.length lens)

let percentile lens p =
  match List.sort compare lens with
  | [] -> 1.0
  | sorted ->
    let n = List.length sorted in
    float_of_int (List.nth sorted (min (n - 1) (p * n / 100)))

let series =
  let over_lengths col metric =
    Exp.trace_series col Cwsp_compiler.Pipeline.cwsp (fun tr ->
        metric (Cwsp_ir.Trace.region_lengths tr))
  in
  [
    over_lengths "mean" avg;
    over_lengths "p50" (fun lens -> percentile lens 50);
    over_lengths "p90" (fun lens -> percentile lens 90);
  ]

let plan () = Exp.plan series

let render () =
  Exp.banner title;
  match Exp.per_workload_table ~series () with
  | overall :: _ ->
    Printf.printf "paper: 38.15 overall average; measured gmean of means: %.1f\n"
      overall;
    overall
  | _ -> assert false
