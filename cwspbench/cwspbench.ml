(* cwspbench — the repository's benchmark program.

     cwspbench --workload figures|campaign|fuzz --seed N --seconds S --trace 0|1

   Runs one workload closed-loop on one domain for about S seconds and
   prints, as the last line of stdout, one JSON object:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones, from untraced passes only; with
   --trace 1 they are the per-layer ones, from alternating untraced and
   traced passes. Every pass's outputs are checked against the values in
   cwspbench/expected.txt; --record prints those values instead (one
   untraced and one traced pass). See cwspbench/README.md. *)

let workloads = [ Figures.workload; Campaign.workload; Fuzz.workload ]

(* Every per-layer metric, in output order. A workload that does not
   exercise a layer reports 0 for it. *)
let per_layer =
  [
    ("sim.replay_ms", "ms"); ("sim.events", "count"); ("sim.ns_per_event", "ns");
    ("ir.trace_ms", "ms"); ("ir.steps", "count"); ("ir.ns_per_step", "ns");
    ("interp.machine_ms", "ms"); ("interp.machine_ns_per_step", "ns");
    ("compiler.compile_ms", "ms"); ("compiler.instrs_out", "count");
    ("verify.run_ms", "ms");
    ("core.hits", "count"); ("core.trace_misses", "count");
    ("core.stats_misses", "count"); ("core.trace_mwords", "Mword");
    ("experiments.render_ms", "ms");
    ("recovery.golden_ms", "ms"); ("recovery.cell_p50_ms", "ms");
    ("recovery.cell_p99_ms", "ms");
  ]
  @ List.map
      (fun c -> ("recovery.cell_ms." ^ Cwsp_recovery.Fault.name c, "ms"))
      Cwsp_recovery.Fault.all
  @ [ ("recovery.sweep_points", "count") ]
  @ List.map (fun o -> (Campaign.outcome_key o, "count")) Campaign.outcomes
  @ [
      ("fuzz.evaluate_p50_ms", "ms"); ("fuzz.evaluate_p99_ms", "ms");
      ("fuzz.mutate_ms", "ms"); ("fuzz.corpus_ms", "ms"); ("fuzz.gen_frac", "fraction");
      ("fuzz.discard_frac", "fraction"); ("fuzz.retain_frac", "fraction");
      ("fuzz.cells", "count");
      ("gc.minor_mw_per_op", "Mword"); ("gc.major_collections", "count");
      ("gc.top_heap_mb", "MiB");
      ("bench.trace_overhead_frac", "fraction"); ("fail_frac", "fraction");
    ]

(* Each of these changes the work a pass does. *)
let guarded_env = [ "CWSP_ORACLE"; "CWSP_FLIGHT"; "CWSP_TRACE"; "CWSP_METRICS" ]

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("cwspbench: " ^ m); exit 2) fmt

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result () =
  let r = Common.result in
  let metrics =
    List.rev_map
      (fun (name, v, unit) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit)
      r.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.failed = 0 && r.errors = [])
    r.attempted r.failed (String.concat ", " metrics)

let run_pass (wl : Workload.t) pass =
  let ops, dt = Common.time pass in
  let failed = wl.check () in
  Common.result.attempted <- Common.result.attempted + ops;
  Common.result.failed <- Common.result.failed + failed;
  (ops, dt)

(* End-to-end: untraced passes, each after its timed set-ups, until the
   next would overrun [seconds]. Throughput is one pass's ops over the
   sum of each unit's fastest CPU time, set-up time that of the fastest
   set-up, both times multiplied by the host scale (see README.md). *)
let untraced (wl : Workload.t) ~seed ~seconds =
  let setups = ref [] in
  let setup () =
    for _ = 1 to wl.setup_reps do
      wl.cleanup ();
      setups := snd (Common.timed (fun () -> wl.setup ~seed)) :: !setups
    done
  in
  let t0 = Unix.gettimeofday () in
  Common.timing_units := true;
  let rates = ref [] and last = ref 0.0 in
  while
    !rates = [] || Unix.gettimeofday () -. t0 +. !last <= float_of_int seconds
  do
    let i0 = Unix.gettimeofday () in
    setup ();
    let ops, dt = run_pass wl wl.pass in
    Common.end_pass ();
    rates := (float_of_int ops /. dt) :: !rates;
    Printf.eprintf "cwspbench: %s pass %d: %d ops in %.3f s\n%!" wl.name
      (List.length !rates) ops dt;
    last := Unix.gettimeofday () -. i0
  done;
  let ops = Common.result.attempted / List.length !rates in
  let scale = Common.host_scale () in
  Printf.eprintf
    "cwspbench: fastest pass %.1f op/s (wall), fastest units %.1f op/s (CPU), host scale %.3f of %d samples\n%!"
    (List.fold_left max 0.0 !rates)
    (float_of_int ops /. Common.fastest_pass ())
    scale (List.length !Common.reference_samples);
  Common.metric "ops_per_s" "op/s" (float_of_int ops /. (Common.fastest_pass () *. scale));
  Common.metric "setup_s" "s" (List.fold_left min infinity !setups *. scale);
  Common.metric "peak_rss_mb" "MiB" (Common.peak_rss_mb ())

(* Per-layer: pairs of (untraced, traced) passes, each from its own
   set-up, until the next pair would overrun [seconds]; at least one. *)
let traced (wl : Workload.t) ~seed ~seconds =
  let plain = ref [] and spanned = ref [] and minor = ref [] and major = ref [] in
  let t0 = Unix.gettimeofday () in
  let finished = ref false in
  while not !finished do
    let p0 = Unix.gettimeofday () in
    wl.cleanup ();
    wl.setup ~seed;
    let g0 = Gc.quick_stat () in
    let ops, dt = run_pass wl wl.pass in
    let g1 = Gc.quick_stat () in
    plain := dt :: !plain;
    minor := ((g1.minor_words -. g0.minor_words) /. float_of_int ops /. 1e6) :: !minor;
    major := float_of_int (g1.major_collections - g0.major_collections) :: !major;
    wl.cleanup ();
    Spans.enabled := true;
    wl.setup ~seed;
    let _, dt = run_pass wl wl.traced_pass in
    spanned := dt :: !spanned;
    let now = Unix.gettimeofday () in
    finished := now -. t0 +. (now -. p0) > float_of_int seconds;
    if !finished then wl.layers ();
    Spans.enabled := false
  done;
  let m = Common.metric in
  m "gc.minor_mw_per_op" "Mword" (Common.median !minor);
  m "gc.major_collections" "count" (Common.median !major);
  m "gc.top_heap_mb" "MiB"
    (float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. 1048576.0);
  m "bench.trace_overhead_frac" "fraction"
    ((Common.median !spanned /. Common.median !plain) -. 1.0);
  let r = Common.result in
  m "fail_frac" "fraction"
    (Common.ratio (float_of_int r.failed) (float_of_int r.attempted));
  Spans.write (Filename.concat Common.work_dir ("spans-" ^ wl.name ^ ".json"));
  (* layers a workload does not exercise report 0; unknown names are a bug *)
  List.iter
    (fun (name, _, _) ->
      if not (List.mem_assoc name per_layer) then die "unlisted per-layer metric %s" name)
    r.metrics;
  r.metrics <-
    List.rev_map
      (fun (name, unit) ->
        match List.find_opt (fun (n, _, _) -> n = name) r.metrics with
        | Some x -> x
        | None -> (name, 0.0, unit))
      per_layer

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  figures, campaign or fuzz");
      ("--seed", Arg.Set_int seed, "N  workload seed (campaign/fuzz master seed)");
      ("--seconds", Arg.Set_int seconds, "S  measuring time");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ( "--record",
        Arg.Set Common.record,
        "  print the expected-value lines of this workload and seed" );
    ]
    (fun a -> die "unexpected argument %s" a)
    "cwspbench --workload NAME --seed N --seconds S --trace 0|1 [--record]";
  List.iter
    (fun k ->
      match Sys.getenv_opt k with
      | Some v when v <> "" -> die "refusing to run with %s set: it changes the work done" k
      | _ -> ())
    guarded_env;
  let wl =
    match List.find_opt (fun (w : Workload.t) -> w.name = !workload) workloads with
    | Some w -> w
    | None -> die "unknown workload %S (figures, campaign, fuzz)" !workload
  in
  Cwsp_core.Executor.set_default_jobs 1;
  Common.ensure_work_dir ();
  Common.load_expected ();
  if !Common.record then begin
    traced wl ~seed:!seed ~seconds:0;
    exit (if Common.result.errors = [] then 0 else 1)
  end;
  if !trace = 0 then untraced wl ~seed:!seed ~seconds:!seconds
  else traced wl ~seed:!seed ~seconds:!seconds;
  print_result ()
