(** cwspc — the cWSP compiler driver.

    Compiles a workload from the registry with the chosen pipeline
    configuration, and optionally dumps the instrumented IR, the compile
    report (regions, checkpoints, pruning rate), the recovery slices, a
    timing simulation against the baseline, and a crash-recovery
    validation sweep.

    Programs can also be written to and compiled from the textual IR
    format ([Cwsp_ir.Pp] / [Cwsp_ir.Parse]).

    Examples:
      cwspc --list
      cwspc -w radix --report
      cwspc -w lbm --dump-ir | less
      cwspc -w tatp --simulate --validate 25
      cwspc -w radix --emit radix.cwsp
      cwspc --input radix.cwsp --report *)

open Cmdliner
open Cwsp_compiler

let list_workloads () =
  List.iter
    (fun (w : Cwsp_workloads.Defs.t) ->
      Printf.printf "%-10s %-10s %s%s\n" w.name
        (Cwsp_workloads.Defs.suite_name w.suite)
        w.description
        (if w.memory_intensive then "  [memory-intensive]" else ""))
    Cwsp_workloads.Registry.all

let config_of_string = function
  | "cwsp" -> Ok Pipeline.cwsp
  | "no-prune" -> Ok Pipeline.cwsp_no_prune
  | "regions" -> Ok Pipeline.regions_only
  | "baseline" -> Ok Pipeline.baseline
  | s -> Error (`Msg (Printf.sprintf "unknown config %S" s))

let run_inner list workload input emit config persist_mode dump_ir report
    slices simulate validate scale verify format =
  if list then (
    list_workloads ();
    `Ok ())
  else
    let source =
      match (workload, input) with
      | Some name, None -> (
        match Cwsp_workloads.Registry.find name with
        | Some w -> Ok (`Workload w)
        | None -> Error (Printf.sprintf "unknown workload %S (try --list)" name))
      | None, Some file -> (
        try
          let ic = open_in file in
          let n = in_channel_length ic in
          let text = really_input_string ic n in
          close_in ic;
          let prog = Cwsp_ir.Parse.program text in
          Cwsp_ir.Validate.check_exn prog;
          Ok (`Program prog)
        with
        | Sys_error m -> Error m
        | Cwsp_ir.Parse.Parse_error (ln, m) ->
          Error (Printf.sprintf "%s:%d: %s" file ln m)
        | Failure m -> Error m)
      | Some _, Some _ -> Error "pass either --workload or --input, not both"
      | None, None -> Error "pass --workload NAME, --input FILE or --list"
    in
    match source with
    | Error m -> `Error (false, m)
    | Ok source -> (
        match config_of_string config with
        | Error (`Msg m) -> `Error (false, m)
        | Ok cc ->
          let cc =
            match persist_mode with
            | `Implicit -> cc
            | `Explicit -> Pipeline.explicit_of cc
          in
          let compiled =
            match source with
            | `Workload w -> Cwsp_core.Api.compiled ~scale w cc
            | `Program prog -> Pipeline.compile ~config:cc prog
          in
          (match emit with
          | Some file ->
            let oc = open_out file in
            output_string oc (Cwsp_ir.Pp.program_str compiled.prog);
            close_out oc;
            Printf.printf "wrote %s\n" file
          | None -> ());
          if report then print_string (Pipeline.report_to_string compiled);
          if dump_ir then print_string (Cwsp_ir.Pp.program_str compiled.prog);
          if slices then
            Array.iteri
              (fun id slice ->
                if slice <> [] then
                  Printf.printf "region #%d (%s): %s\n" id
                    compiled.boundary_owner.(id)
                    (Cwsp_ckpt.Slice.to_string slice))
              compiled.slices;
          if simulate then begin
            let cfg = Cwsp_sim.Config.default in
            let source_prog =
              match source with
              | `Workload w -> w.build ~scale
              | `Program prog -> prog
            in
            let base_prog =
              (Pipeline.compile ~config:Pipeline.baseline source_prog).prog
            in
            let _, tr_base = Cwsp_ir.Decode.trace_of_program base_prog in
            let _, tr = Cwsp_ir.Decode.trace_of_program compiled.prog in
            let base = Cwsp_sim.Engine.run_trace cfg Cwsp_sim.Engine.Baseline tr_base in
            let st =
              Cwsp_sim.Engine.run_trace cfg
                (Cwsp_sim.Engine.Cwsp Cwsp_sim.Engine.cwsp_full) tr
            in
            Printf.printf "baseline: %s\n" (Cwsp_sim.Stats.to_string base);
            Printf.printf "cwsp:     %s\n" (Cwsp_sim.Stats.to_string st);
            Printf.printf "normalized slowdown: %.3f\n"
              (Cwsp_sim.Stats.slowdown st ~baseline:base)
          end;
          let validation_failures =
            match validate with
            | 0 -> 0
            | points ->
              let module H = Cwsp_recovery.Harness in
              let st, tr = Cwsp_ir.Decode.trace_of_program compiled.prog in
              let golden = H.golden_of_run st in
              let total = Cwsp_ir.Trace.length tr in
              let crash_ats =
                List.init points (fun i -> 1 + (i * (max 1 (total - 2)) / points))
              in
              (* explicit-mode binaries are checked against the explicit
                 (flush/fence) durability oracle, implicit ones against
                 the cWSP hardware model; either way one tracked run
                 serves every point *)
              let outcomes =
                H.sweep ~mode:cc.Pipeline.persist_mode ~launch:Main ~golden compiled
                  (List.mapi
                     (fun i crash_at -> H.clean_point ~seed:(100 + i) ~crash_at)
                     crash_ats)
              in
              let ok = ref 0 in
              List.iter2
                (fun crash_at outcome ->
                  match H.require_clean outcome with
                  | Ok _ -> incr ok
                  | Error e -> Printf.printf "FAIL @%d: %s\n" crash_at e)
                crash_ats outcomes;
              Printf.printf "recovery validation: %d/%d crash points ok\n" !ok
                points;
              points - !ok
          in
          let verified =
            if verify then begin
              let diags = Cwsp_verify.Verify.(normalize (run compiled)) in
              let errs = Cwsp_verify.Verify.errors diags in
              (match format with
              | `Json -> print_endline (Cwsp_verify.Verify.report_json diags)
              | `Text ->
                if diags <> [] then
                  print_endline (Cwsp_verify.Verify.report diags);
                if errs = [] then
                  Printf.printf "verify: ok (%d regions, %d warnings)\n"
                    (Pipeline.nboundaries compiled)
                    (List.length diags));
              if errs <> [] then
                `Error
                  ( false,
                    Printf.sprintf "verification failed with %d error(s)"
                      (List.length errs) )
              else `Ok ()
            end
            else `Ok ()
          in
          (* any diverging crash point fails the run *)
          match verified with
          | `Ok () when validation_failures > 0 ->
            `Error
              ( false,
                Printf.sprintf "recovery validation failed at %d crash point(s)"
                  validation_failures )
          | v -> v)

(* Telemetry wrapper: configure before any compile/simulate work so the
   spans land in the ring buffers, finalize after the last exit path. *)
let run list workload input emit config persist_mode dump_ir report slices
    simulate validate scale verify format trace metrics =
  Cwsp_obs.Obs.configure ?trace ?metrics ();
  let result =
    run_inner list workload input emit config persist_mode dump_ir report
      slices simulate validate scale verify format
  in
  Cwsp_obs.Obs.finalize ();
  result

let cmd =
  let list =
    Arg.(value & flag & info [ "l"; "list" ] ~doc:"List available workloads.")
  in
  let workload =
    Arg.(
      value
      & opt (some string) None
      & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Workload to compile.")
  in
  let input =
    Arg.(
      value
      & opt (some string) None
      & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Compile a textual IR file.")
  in
  let emit =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit" ] ~docv:"FILE" ~doc:"Write the compiled IR to FILE.")
  in
  let config =
    Arg.(
      value & opt string "cwsp"
      & info [ "c"; "config" ] ~docv:"CONFIG"
          ~doc:"Pipeline config: $(b,cwsp), $(b,no-prune), $(b,regions) or $(b,baseline).")
  in
  let persist_mode =
    Arg.(
      value
      & opt (enum [ ("implicit", `Implicit); ("explicit", `Explicit) ]) `Implicit
      & info [ "persist-mode" ] ~docv:"MODE"
          ~doc:
            "Persistency mode: $(b,implicit) (the cWSP hardware persists \
             committed stores) or $(b,explicit) (the compiler inserts \
             certified minimal flush/pfence sequences; enables the \
             persist verifier tier and the explicit recovery oracle).")
  in
  let dump_ir =
    Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print the instrumented IR.")
  in
  let report =
    Arg.(value & flag & info [ "r"; "report" ] ~doc:"Print the compile report.")
  in
  let slices =
    Arg.(value & flag & info [ "slices" ] ~doc:"Print non-empty recovery slices.")
  in
  let simulate =
    Arg.(
      value & flag
      & info [ "s"; "simulate" ] ~doc:"Run the timing simulation vs the baseline.")
  in
  let validate =
    Arg.(
      value & opt int 0
      & info [ "validate" ] ~docv:"N"
          ~doc:"Inject N power failures and validate the recovery protocol.")
  in
  let scale =
    Arg.(value & opt int 1 & info [ "scale" ] ~docv:"K" ~doc:"Workload scale factor.")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Run the static crash-consistency verifier on the compiled \
             program; exit non-zero on any error diagnostic.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Verifier report format: $(b,text) (one diagnostic per line \
             plus a summary) or $(b,json) (machine-readable diagnostic \
             records).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON profile of the run to FILE \
             (open in Perfetto or chrome://tracing). Also honors the \
             $(b,CWSP_TRACE) environment variable.")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write flat JSON metrics (counters, histograms, gauges) to \
             FILE. Also honors the $(b,CWSP_METRICS) environment variable.")
  in
  let term =
    Term.(
      ret
        (const run $ list $ workload $ input $ emit $ config $ persist_mode
       $ dump_ir $ report $ slices $ simulate $ validate $ scale $ verify
       $ format $ trace $ metrics))
  in
  Cmd.v
    (Cmd.info "cwspc" ~version:"1.0"
       ~doc:"compiler-directed whole-system persistence driver")
    term

let () = exit (Cmd.eval cmd)
