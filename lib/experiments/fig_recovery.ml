(** Recovery validation (extension — the paper's declared future work,
    Section VIII "No Power Failure Recovery Test").

    Injects power failures at spread-out points of each workload,
    executes the recovery protocol and checks NVM-state equality with a
    failure-free run. Also reports what the paper argues analytically:
    the recovery cost is tiny because only tens of instructions are
    re-executed.

    The plan declares the compiled binaries and traces (the shared,
    memoizable part); the crash injections themselves re-execute the
    machine with per-run state and stay in the render step. *)

open Cwsp_workloads

let title = "Recovery: crash injection + protocol validation"

(* Workloads exercised heavily here; the full sweep over all 38 runs in
   the test suite. *)
let sample = [ "lbm"; "radix"; "c"; "tatp"; "xz" ]

let plan () =
  List.map
    (fun name ->
      Cwsp_core.Job.trace (Registry.find_exn name) Cwsp_compiler.Pipeline.cwsp)
    sample

let validate_workload ?(crashes = 12) (w : Defs.t) =
  let tr = Cwsp_core.Api.trace w Cwsp_compiler.Pipeline.cwsp in
  let total = Cwsp_ir.Trace.length tr in
  let ok = ref 0 and failed = ref 0 and restored = ref 0 in
  let points =
    List.init crashes (fun i -> (7000 + i, 1 + (i * (total - 2) / crashes)))
  in
  List.iter
    (function
      | Ok (r : Cwsp_recovery.Harness.fault_report) ->
        incr ok;
        restored := !restored + r.fr_restored
      | Error _ -> incr failed)
    (Cwsp_core.Api.validate_recovery ~points w);
  (!ok, !failed, float_of_int !restored /. float_of_int (max 1 !ok))

let render () =
  Exp.banner title;
  let rows =
    List.map
      (fun name ->
        let w = Registry.find_exn name in
        let ok, failed, avg_restored = validate_workload w in
        [ w.name; string_of_int ok; string_of_int failed;
          Printf.sprintf "%.1f" avg_restored ])
      sample
  in
  Cwsp_util.Table.print
    ~headers:[ "workload"; "recoveries ok"; "failed"; "avg regs restored" ]
    rows;
  let total_failed =
    List.fold_left (fun acc row -> acc + int_of_string (List.nth row 2)) 0 rows
  in
  Printf.printf "crash-consistency violations: %d\n" total_failed;
  total_failed
