(* The paper-figure path: the union plan of Fig. 14 and Fig. 21
   executed on cold [Api] memo caches at executor width 1, then both
   renders. An op is one distinct simulation job. *)

open Cwsp_core
module Exp = Cwsp_experiments
module Trace = Cwsp_interp.Trace
module Sim_stats = Cwsp_sim.Stats

let scope = "figures"

let figs =
  [
    ("fig14", Exp.Fig14.plan, fun () -> ignore (Exp.Fig14.render ()));
    ("fig21", Exp.Fig21.plan, fun () -> ignore (Exp.Fig21.render ()));
  ]

(* first job per key, in declaration order — the executor's dedupe *)
let dedupe key js =
  let seen = Hashtbl.create 256 in
  List.filter
    (fun j ->
      let k = key j in
      (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
    js

let points = ref []  (* distinct simulation jobs: the ops *)
let traces = ref []  (* one job per distinct trace *)
let renders = ref []
let cache = ref []

(* the plan cut into [nslices] runs of whole trace groups, each about a
   second of work: the timing units *)
let nslices = 8
let slices = ref []

let setup ~seed:_ =
  Api.reset_caches ();
  let plan = List.concat_map (fun (_, p, _) -> p ()) figs in
  points := dedupe Job.key plan;
  traces := dedupe Job.trace_key !points;
  let by_trace = Hashtbl.create 256 in
  List.iter (fun j -> Hashtbl.add by_trace (Job.trace_key j) j) plan;
  let n = List.length !traces in
  let groups =
    List.map (fun t -> List.rev (Hashtbl.find_all by_trace (Job.trace_key t))) !traces
  in
  slices :=
    List.init nslices (fun k ->
        List.concat (List.filteri (fun i _ -> i * nslices / n = k) groups))

let traced = ref false

let render_all ~span =
  renders :=
    List.map
      (fun (id, _, r) -> (id, snd (Common.capture_stdout (fun () -> span r))))
      figs

(* One [Executor.run] per slice: each slice's traces, then its points,
   which is the memo traffic of one run over the whole plan. [cache]
   keeps the untraced pass's traffic: the traced pass calls
   [Api.compiled] on its own, which adds compile-cache hits. *)
let pass () =
  List.iteri
    (fun k jobs -> Common.timed_unit (string_of_int k) (fun () -> Executor.run ~jobs:1 jobs))
    !slices;
  Common.timed_unit "render" (fun () -> render_all ~span:(fun r -> r ()));
  cache := Api.cache_stats ();
  traced := false;
  List.length !points

let compile_of (j : Job.t) =
  match j.spec with
  | Job.Stats { scheme; _ } -> scheme.s_compile
  | Job.Trace { compile } -> compile

let trace_of (j : Job.t) = Api.trace ~scale:j.scale j.workload (compile_of j)

(* Every statistic a figure could read, floats in exact hex form. *)
let stats_digest (s : Sim_stats.t) =
  Common.digest
    (Printf.sprintf "%h %d %d %d %d %d %d %d %d %h %h %d %d %d %h %h %h %h %h %h %h %h %d"
       s.elapsed_ns s.instructions s.loads s.stores s.ckpt_stores s.boundaries
       s.atomics s.fences s.nvm_reads s.l1_miss_rate s.llc_miss_rate s.nvm_writes
       s.log_writes s.wpq_hits s.stall_pb_ns s.stall_rbt_ns s.stall_drain_ns
       s.stall_sync_ns s.stall_wb_ns s.stall_wpq_hit_ns s.stall_redo_ns
       (Cwsp_util.Stats.Acc.mean s.wb_occupancy)
       (Cwsp_util.Stats.Acc.count s.wb_occupancy))

let job_digest (j : Job.t) =
  match j.spec with
  | Job.Stats { scheme; cfg } ->
      stats_digest (Api.stats ~scale:j.scale j.workload scheme cfg)
  | Job.Trace _ -> string_of_int (Trace.length (trace_of j))

let cache_count name f =
  List.fold_left
    (fun acc (n, (s : Store.stats), _) -> if n = name then acc + f s else acc)
    0 !cache

let hits () = List.fold_left (fun a (_, (s : Store.stats), _) -> a + s.hits) 0 !cache

(* events replayed: every stats job replays its whole trace *)
let sim_events () =
  List.fold_left
    (fun a (j : Job.t) ->
      match j.spec with Job.Stats _ -> a + Trace.length (trace_of j) | _ -> a)
    0 !points

let trace_words () =
  List.fold_left (fun a j -> a + Trace.length (trace_of j)) 0 !traces

let check () =
  let failed =
    List.fold_left
      (fun n j ->
        if Common.check ~scope ("stats:" ^ Job.key j) (job_digest j) then n
        else n + 1)
      0 !points
  in
  List.iter
    (fun (id, out) -> ignore (Common.check ~scope ("render:" ^ id) (Common.digest out)))
    !renders;
  let count k n = if not !traced then ignore (Common.check_count ~scope k n) in
  count "ops" (List.length !points);
  count "core.hits" (hits ());
  count "core.trace_misses" (cache_count "trace" (fun s -> s.misses));
  count "core.stats_misses" (cache_count "stats" (fun s -> s.misses));
  count "sim.events" (sim_events ());
  failed

let cleanup () =
  Api.reset_caches ();
  Gc.compact ()

(* The traced pass calls the layers directly, in the executor's order:
   every distinct trace first (compile, then decode-and-run), then every
   simulation point (replay of a memoized trace), then the renders. *)
let traced_pass () =
  Spans.with_span "figures.pass" (fun () ->
      List.iter
        (fun (j : Job.t) ->
          Spans.with_span "core.trace_job" (fun () ->
              let cc = compile_of j in
              Spans.with_span "compiler.compile" (fun () ->
                  ignore (Api.compiled ~scale:j.scale j.workload cc));
              Spans.with_span "ir.trace" (fun () ->
                  ignore (Api.trace ~scale:j.scale j.workload cc))))
        !traces;
      List.iter
        (fun (j : Job.t) ->
          Spans.with_span "core.stats_job" (fun () ->
              match j.spec with
              | Job.Stats { scheme; cfg } ->
                  Spans.with_span "sim.replay" (fun () ->
                      ignore (Api.stats ~scale:j.scale j.workload scheme cfg))
              | Job.Trace _ -> ()))
        !points;
      render_all ~span:(fun r -> Spans.with_span "experiments.render" r));
  traced := true;
  List.length !points

(* Each memoized trace checked against the reference interpreter; the
   decoded step counts it reports are the ir layer's work count. *)
let oracle_steps () =
  List.fold_left
    (fun acc (j : Job.t) ->
      let c = Api.compiled ~scale:j.scale j.workload (compile_of j) in
      match Cwsp_interp.Oracle.check ~label:j.workload.name c.prog with
      | Ok (Cwsp_interp.Oracle.Value (st, tr)) ->
          if not (Trace.equal tr (trace_of j)) then
            Common.error "figures: trace of %s differs from the reference run"
              (Job.trace_key j);
          acc + Cwsp_ir.Decode.steps st
      | Ok _ ->
          Common.error "figures: %s did not run to completion" (Job.trace_key j);
          acc
      | Error e ->
          Common.error "figures: %s: reference mismatch: %s" (Job.trace_key j) e;
          acc)
    0 !traces

let layers () =
  let steps = oracle_steps () in
  ignore (Common.check_count ~scope "ir.steps" steps);
  let m = Common.metric in
  let events = float_of_int (sim_events ()) in
  let passes = float_of_int (List.length (Spans.named "figures.pass")) in
  let per_pass name = Spans.self_ms name /. passes in
  let replay = per_pass "sim.replay" and trace = per_pass "ir.trace" in
  m "sim.replay_ms" "ms" replay;
  m "sim.events" "count" events;
  m "sim.ns_per_event" "ns" (Common.ratio (1e6 *. replay) events);
  m "ir.trace_ms" "ms" trace;
  m "ir.steps" "count" (float_of_int steps);
  m "ir.ns_per_step" "ns" (Common.ratio (1e6 *. trace) (float_of_int steps));
  m "compiler.compile_ms" "ms" (per_pass "compiler.compile");
  m "compiler.instrs_out" "count"
    (float_of_int
       (List.fold_left
          (fun a (j : Job.t) ->
            a
            + Cwsp_ir.Prog.total_instr_count
                (Api.compiled ~scale:j.scale j.workload (compile_of j)).prog)
          0 !traces));
  m "core.hits" "count" (float_of_int (hits ()));
  m "core.trace_misses" "count" (float_of_int (cache_count "trace" (fun s -> s.misses)));
  m "core.stats_misses" "count" (float_of_int (cache_count "stats" (fun s -> s.misses)));
  m "core.trace_mwords" "Mword" (float_of_int (trace_words ()) /. 1e6);
  m "experiments.render_ms" "ms" (per_pass "experiments.render")

let workload =
  {
    Workload.name = "figures";
    setup_reps = 5;
    setup;
    pass;
    check;
    cleanup;
    traced_pass;
    layers;
  }
