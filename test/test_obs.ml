(* Tests for the observability layer (Cwsp_obs.Obs): span bookkeeping,
   the zero-cost disabled mode, the determinism contract (golden output
   byte-identical across pool widths with tracing on), and the shape of
   the exported Chrome trace-event JSON. *)

open Cwsp_sim
open Cwsp_core
open Cwsp_workloads
open Cwsp_experiments
module Obs = Cwsp_obs.Obs

let w = Registry.find_exn
let cwsp = Cwsp_schemes.Schemes.cwsp

(* ---- span bookkeeping ---- *)

let test_span_balance () =
  Obs.reset ();
  Obs.enable ();
  Obs.span_begin ~cat:"t" "outer";
  Obs.span_begin ~cat:"t" ~args:[ ("k", 1.0) ] "inner";
  Alcotest.(check int) "two open spans" 2 (Obs.open_depth ());
  Obs.span_end ();
  Obs.span_end ();
  Alcotest.(check int) "balanced" 0 (Obs.open_depth ());
  let spans = Obs.snapshot_spans () in
  Alcotest.(check int) "two recorded" 2 (List.length spans);
  let find name =
    match List.find_opt (fun s -> s.Obs.sp_name = name) spans with
    | Some s -> s
    | None -> Alcotest.fail ("span not recorded: " ^ name)
  in
  let a = find "outer" and b = find "inner" in
  Alcotest.(check bool) "inner nested in outer" true
    (b.sp_ts_us >= a.sp_ts_us
    && b.sp_ts_us +. b.sp_dur_us <= a.sp_ts_us +. a.sp_dur_us +. 1.0);
  Alcotest.(check string) "cat kept" "t" a.sp_cat;
  Alcotest.(check (list (pair string (float 0.0)))) "args kept"
    [ ("k", 1.0) ] b.sp_args;
  Obs.reset ()

let test_span_unbalanced_end () =
  Obs.reset ();
  Obs.enable ();
  let before = Obs.unbalanced_ends () in
  Obs.span_end ();
  (* counted, never raised *)
  Alcotest.(check int) "unbalanced counted" (before + 1) (Obs.unbalanced_ends ());
  Alcotest.(check int) "no spans recorded" 0
    (List.length (Obs.snapshot_spans ()));
  Obs.reset ()

let test_time_helper () =
  Obs.reset ();
  Obs.enable ();
  let r = Obs.time ~cat:"t" "timed" (fun () -> 41 + 1) in
  Alcotest.(check int) "result passed through" 42 r;
  (* span recorded even when f raises *)
  (try Obs.time "raising" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "both spans recorded" 2
    (List.length (Obs.snapshot_spans ()));
  Alcotest.(check int) "stack rewound after raise" 0 (Obs.open_depth ());
  Obs.reset ()

(* ---- disabled mode is a no-op ---- *)

let test_disabled_noop () =
  Obs.reset ();
  Alcotest.(check bool) "reset disables" false !Obs.on;
  Obs.span_begin ~cat:"t" "ghost";
  Obs.span_end ();
  Obs.counter_event ~name:"ghost" ~ts_us:0.0 [ ("v", 1.0) ];
  let c = Obs.Counter.make "test.disabled.counter" in
  Obs.Counter.add c 5;
  Obs.Counter.incr c;
  let h = Obs.Hist.make "test.disabled.hist" in
  Obs.Hist.add h 3.0;
  Alcotest.(check int) "no spans" 0 (List.length (Obs.snapshot_spans ()));
  Alcotest.(check int) "counter untouched" 0 (Obs.Counter.value c);
  Alcotest.(check int) "hist untouched" 0 (Obs.Hist.count h);
  Alcotest.(check int) "depth zero" 0 (Obs.open_depth ());
  (* the timed helper still runs the payload *)
  Alcotest.(check int) "time passes through" 7 (Obs.time "x" (fun () -> 7));
  Obs.reset ()

let test_counters_enabled () =
  Obs.reset ();
  Obs.enable ();
  let c = Obs.Counter.make "test.enabled.counter" in
  Obs.Counter.add c 5;
  Obs.Counter.incr c;
  Alcotest.(check int) "accumulates" 6 (Obs.Counter.value c);
  Alcotest.(check string) "name" "test.enabled.counter" (Obs.Counter.name c);
  (* find-or-create returns the same counter *)
  Obs.Counter.incr (Obs.Counter.make "test.enabled.counter");
  Alcotest.(check int) "shared by name" 7 (Obs.Counter.value c);
  Obs.reset ()

(* ---- determinism: tracing on, jobs=1 vs jobs=4 ---- *)

let subset = List.map w [ "radix"; "tatp" ]
let series = [ Exp.slowdown_series "cWSP" cwsp Config.default ]
let render () = Exp.per_workload_table ~subset ~series ()

(* Capture everything [f] prints to stdout (same shape as
   test_executor.ml). *)
let capture_stdout f =
  let tmp = Filename.temp_file "cwsp_obs_test" ".txt" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close fd)
    (fun () -> ignore (f ()));
  let ic = open_in_bin tmp in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove tmp;
  s

let run_traced ~jobs =
  Obs.reset ();
  Obs.enable ();
  Api.reset_caches ();
  Executor.run ~jobs (Exp.plan ~subset series);
  let out = capture_stdout render in
  let spans = List.length (Obs.snapshot_spans ()) in
  (* the golden-identity runs must fit their rings: a dropped span would
     mean the comparison silently covered less than the full workload *)
  List.iter
    (fun (tid, dropped) ->
      Alcotest.(check int)
        (Printf.sprintf "domain %d dropped no spans" tid)
        0 dropped)
    (Obs.dropped_per_domain ());
  Obs.reset ();
  (out, spans)

let test_traced_jobs_identical () =
  let out1, spans1 = run_traced ~jobs:1 in
  let out4, spans4 = run_traced ~jobs:4 in
  Alcotest.(check bool) "rendered output non-empty" true
    (String.length out1 > 0);
  Alcotest.(check string) "stdout identical, tracing on, jobs=1 vs 4" out1 out4;
  Alcotest.(check bool) "spans recorded at both widths" true
    (spans1 > 0 && spans4 > 0)

let test_traced_matches_untraced () =
  (* tracing must not perturb the rendered output at all *)
  let traced, _ = run_traced ~jobs:2 in
  Obs.reset ();
  Api.reset_caches ();
  Executor.run ~jobs:2 (Exp.plan ~subset series);
  let plain = capture_stdout render in
  Alcotest.(check string) "tracing on vs off" plain traced

(* ---- Chrome trace-event JSON schema ---- *)

module Json = Cwsp_util.Json

(* Exercise every instrumented layer in-process, export the trace, and
   validate it against the Chrome trace-event schema. *)
let test_trace_schema () =
  Obs.reset ();
  Obs.enable ();
  Api.reset_caches ();
  Executor.run ~jobs:2 (Exp.plan ~subset series);
  (* one fault-campaign cell for the campaign category *)
  let target =
    Cwsp_recovery.Campaign.target ~name:"radix"
      (Api.compiled (w "radix") Cwsp_compiler.Pipeline.cwsp)
  in
  let report =
    Cwsp_recovery.Campaign.run ~seeds:1
      ~classes:[ List.hd Cwsp_recovery.Fault.all ]
      [ target ]
  in
  Alcotest.(check int) "campaign ran one cell" 1
    (List.length report.Cwsp_recovery.Campaign.r_cells);
  let tmp = Filename.temp_file "cwsp_obs_trace" ".json" in
  Obs.write_trace tmp;
  let j = Json.of_file tmp in
  Sys.remove tmp;
  Obs.reset ();
  let events =
    match Json.member "traceEvents" j with
    | Some (List evs) -> evs
    | _ -> Alcotest.fail "traceEvents array missing"
  in
  Alcotest.(check bool) "has events" true (events <> []);
  let cats = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let str k =
        match Json.member k ev with
        | Some (Str s) -> s
        | _ -> Alcotest.fail (Printf.sprintf "event missing string %S" k)
      in
      let num k =
        match Option.bind (Json.member k ev) Json.to_float_opt with
        | Some f -> f
        | None -> Alcotest.fail (Printf.sprintf "event missing number %S" k)
      in
      ignore (str "name");
      ignore (num "pid");
      match str "ph" with
      | "X" ->
        Hashtbl.replace cats (str "cat") ();
        ignore (num "tid");
        ignore (num "ts");
        Alcotest.(check bool) "duration non-negative" true (num "dur" >= 0.0)
      | "C" -> (
        ignore (num "ts");
        match Json.member "args" ev with
        | Some (Obj kvs) ->
          List.iter
            (fun (_, v) ->
              match v with
              | Json.Num _ -> ()
              | _ -> Alcotest.fail "counter arg not a number")
            kvs
        | _ -> Alcotest.fail "counter event without args object")
      | "M" -> ()
      | ph -> Alcotest.fail (Printf.sprintf "unexpected phase %S" ph))
    events;
  List.iter
    (fun cat ->
      Alcotest.(check bool)
        (Printf.sprintf "category %S present" cat)
        true (Hashtbl.mem cats cat))
    [ "compiler"; "executor"; "sim"; "campaign" ]

let test_metrics_schema () =
  Obs.reset ();
  Obs.enable ();
  let c = Obs.Counter.make "test.metrics.counter" in
  Obs.Counter.add c 3;
  let h = Obs.Hist.make "test.metrics.hist" in
  Obs.Hist.add h 5.0;
  Obs.Hist.add h 500.0;
  let tmp = Filename.temp_file "cwsp_obs_metrics" ".json" in
  Obs.write_metrics tmp;
  let j = Json.of_file tmp in
  Sys.remove tmp;
  Obs.reset ();
  (match Json.member "counters" j with
  | Some (Obj kvs) ->
    Alcotest.(check bool) "counter exported" true
      (Option.bind (List.assoc_opt "test.metrics.counter" kvs) Json.to_int_opt
      = Some 3)
  | _ -> Alcotest.fail "counters object missing");
  match Json.member "histograms" j with
  | Some (Obj kvs) -> (
    match List.assoc_opt "test.metrics.hist" kvs with
    | Some hist ->
      Alcotest.(check bool) "hist count" true
        (Option.bind (Json.member "count" hist) Json.to_int_opt = Some 2);
      (match Json.member "p50" hist with
      | Some (Json.Num _) -> ()
      | _ -> Alcotest.fail "hist p50 missing")
    | None -> Alcotest.fail "histogram not exported")
  | _ -> Alcotest.fail "histograms object missing"

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "balance and nesting" `Quick test_span_balance;
          Alcotest.test_case "unbalanced end counted" `Quick
            test_span_unbalanced_end;
          Alcotest.test_case "time helper" `Quick test_time_helper;
        ] );
      ( "disabled",
        [
          Alcotest.test_case "no-op when off" `Quick test_disabled_noop;
          Alcotest.test_case "counters when on" `Quick test_counters_enabled;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs=1 vs jobs=4, tracing on" `Slow
            test_traced_jobs_identical;
          Alcotest.test_case "tracing on vs off" `Slow
            test_traced_matches_untraced;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace schema" `Slow test_trace_schema;
          Alcotest.test_case "metrics schema" `Quick test_metrics_schema;
        ] );
    ]
