(* Executor determinism and result-store concurrency tests: the
   plan/execute/render architecture must produce byte-identical rendered
   output and identical Stats.t for any domain-pool width, and the
   mutex-protected store must stay consistent under concurrent hammering
   (DESIGN.md §5). *)

open Cwsp_sim
open Cwsp_core
open Cwsp_workloads
open Cwsp_experiments

let w = Registry.find_exn
let cwsp = Cwsp_schemes.Schemes.cwsp

(* A representative slice of the evaluation: a slowdown column plus two
   sweep columns, over workloads from three suites. *)
let subset = List.map w [ "sjeng"; "radix"; "tatp" ]

let series =
  [
    Exp.slowdown_series "cWSP" cwsp Config.default;
    Exp.slowdown_series "RBT-8" cwsp { Config.default with rbt_entries = 8 };
    Exp.slowdown_series "RBT-32" cwsp { Config.default with rbt_entries = 32 };
  ]

let render () = Exp.per_workload_table ~subset ~series ()

(* Capture everything [f] prints to stdout. *)
let capture_stdout f =
  let tmp = Filename.temp_file "cwsp_exec_test" ".txt" in
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

let run_at ~jobs =
  Api.reset_caches ();
  Executor.run ~jobs (Exp.plan ~subset series);
  let out = capture_stdout render in
  let stats =
    List.map (fun wl -> Stats.to_string (Api.stats wl cwsp Config.default)) subset
  in
  (out, stats)

(* Rendered output and full Stats.t contents identical at 1 vs 4 domains. *)
let test_jobs_determinism () =
  let out1, stats1 = run_at ~jobs:1 in
  let out4, stats4 = run_at ~jobs:4 in
  Alcotest.(check bool) "rendered output non-empty" true
    (String.length out1 > 0);
  Alcotest.(check string) "rendered output jobs=1 vs jobs=4" out1 out4;
  List.iteri
    (fun i (s1, s4) ->
      Alcotest.(check string) (Printf.sprintf "stats[%d] identical" i) s1 s4)
    (List.combine stats1 stats4)

(* The executor dedupes: re-running the same plan adds no new results. *)
let test_plan_dedup () =
  Api.reset_caches ();
  let plan = Exp.plan ~subset series in
  Executor.run ~jobs:2 (plan @ plan);
  let points =
    List.length (List.sort_uniq compare (List.map Job.key plan))
  in
  Alcotest.(check bool)
    (Printf.sprintf "plan has %d unique points" points)
    true (points > 0);
  (* all of them must now be memo hits: render without executing *)
  let out = capture_stdout render in
  Alcotest.(check bool) "render from warm store" true (String.length out > 0)

(* Grouped replay keeps the memo traffic of point-by-point replay: on
   fresh caches, [Executor.run] over the Fig. 14 + Fig. 21 plan makes
   the hits, misses and races of generating each trace once and then
   calling [Api.stats] per point, and memoizes the same stats. *)
let test_grouped_traffic () =
  let plan = Fig14.plan () @ Fig21.plan () in
  let results points =
    List.map
      (fun (j : Job.t) ->
        match j.spec with
        | Job.Stats { scheme; cfg } ->
          Some (Api.stats ~scale:j.scale j.workload scheme cfg)
        | Job.Trace _ -> None)
      points
  in
  let dedupe key js =
    let seen = Hashtbl.create 256 in
    List.filter
      (fun j ->
        let k = key j in
        (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
      js
  in
  let points = dedupe Job.key plan in
  Api.reset_caches ();
  List.iter Job.execute_trace (dedupe Job.trace_key points);
  List.iter Job.execute points;
  let per_point = Api.cache_stats () in
  let per_point_stats = results points in
  Api.reset_caches ();
  Executor.run ~jobs:1 plan;
  let grouped = Api.cache_stats () in
  let show l =
    String.concat "; "
      (List.map
         (fun (name, (s : Store.stats), n) ->
           Printf.sprintf "%s: %d hits, %d misses, %d races, %d entries" name
             s.hits s.misses s.races n)
         l)
  in
  Alcotest.(check string) "memo traffic" (show per_point) (show grouped);
  List.iter2
    (fun (j : Job.t) (a, b) ->
      (* field for field, floats bit for bit *)
      Alcotest.(check bool) (Job.key j) true (a = b))
    points
    (List.combine per_point_stats (results points))

(* Concurrency smoke: many domains hammer one store with overlapping
   keys; every read must observe the canonical value and the store must
   end with exactly one entry per key. *)
let test_store_hammer () =
  let store : (int, int) Store.t = Store.create 16 in
  let iters = 20_000 and keyspace = 97 in
  let worker () =
    for i = 0 to iters - 1 do
      let k = i mod keyspace in
      let v = Store.memo store k (fun () -> (k * 2654435761) land 0xffff) in
      if v <> (k * 2654435761) land 0xffff then
        failwith (Printf.sprintf "store returned wrong value for key %d" k)
    done
  in
  let domains = List.init 3 (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join domains;
  Alcotest.(check int) "one entry per key" keyspace (Store.length store)

(* Concurrency smoke at the Api layer: domains racing whole
   compile->trace->replay chains for the same points all observe equal
   results. *)
let test_api_concurrent_stats () =
  Api.reset_caches ();
  let ws = List.map w [ "sjeng"; "radix" ] in
  let compute () =
    List.map (fun wl -> (Api.stats wl cwsp Config.default).elapsed_ns) ws
  in
  let domains = List.init 3 (fun _ -> Domain.spawn compute) in
  let mine = compute () in
  let others = List.map Domain.join domains in
  List.iter
    (fun other ->
      List.iteri
        (fun i (a, b) ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "elapsed_ns[%d] equal across domains" i)
            a b)
        (List.combine mine other))
    others

let () =
  Alcotest.run "executor"
    [
      ( "determinism",
        [
          Alcotest.test_case "jobs=1 vs jobs=4" `Slow test_jobs_determinism;
          Alcotest.test_case "plan dedup" `Slow test_plan_dedup;
          Alcotest.test_case "grouped replay memo traffic" `Slow
            test_grouped_traffic;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "store hammer" `Quick test_store_hammer;
          Alcotest.test_case "api concurrent stats" `Slow
            test_api_concurrent_stats;
        ] );
    ]
