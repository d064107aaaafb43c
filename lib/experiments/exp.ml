(** Shared infrastructure for the per-figure experiment drivers, built
    around the plan/execute/render split (DESIGN.md §5):

    - {b plan} — a driver declares its simulation points as pure
      [Cwsp_core.Job.t] values; a [series] pairs a table column with both
      the points it needs and the function that reads the memoized
      result.
    - {b execute} — [Cwsp_core.Executor.run] deduplicates the points,
      generates each shared trace once and replays the timing runs
      across a domain pool.
    - {b render} — the table helpers below iterate workloads and series
      in declaration order, so output is deterministic and identical for
      any pool width.

    Conventions: every driver prints the same series the paper's figure
    plots — per-workload values with per-suite and overall geometric
    means, or per-suite series for the sweeps — and returns the headline
    number(s) so the integration tests can assert the reproduced *shape*
    (who wins, by roughly what factor). *)

open Cwsp_util
open Cwsp_workloads
open Cwsp_core

let workloads = Registry.all

(* Occupancy-style series contain zeros; slowdown-style series use the
   geometric mean like the paper. *)
type agg = Gmean | Mean

let aggregate agg xs =
  match agg with Gmean -> Stats.gmean xs | Mean -> Stats.mean xs

let banner title =
  let line = String.make (String.length title) '=' in
  Printf.printf "\n%s\n%s\n" title line

(** One table column: the simulation points it needs (plan side) and the
    evaluation reading their memoized results (render side). *)
type series = {
  col : string;
  points : Defs.t -> Job.t list;
  eval : Defs.t -> float;
}

(** Slowdown column: [scheme] vs the baseline on [cfg]. *)
let slowdown_series ?scale col scheme cfg =
  {
    col;
    points = (fun w -> Job.slowdown ?scale w ~scheme cfg);
    eval = (fun w -> Api.slowdown ?scale w ~scheme cfg);
  }

(** Metric column: [metric] over the stats of [scheme] on [cfg]. *)
let stats_series ?scale col scheme cfg metric =
  {
    col;
    points = (fun w -> [ Job.stats ?scale w scheme cfg ]);
    eval = (fun w -> metric (Api.stats ?scale w scheme cfg));
  }

(** Trace-metric column: [metric] over the commit trace of [compile]. *)
let trace_series ?scale col compile metric =
  {
    col;
    points = (fun w -> [ Job.trace ?scale w compile ]);
    eval = (fun w -> metric (Api.trace ?scale w compile));
  }

(** The plan of a series list over a workload subset. *)
let plan ?(subset = workloads) series =
  List.concat_map
    (fun (w : Defs.t) -> List.concat_map (fun s -> s.points w) series)
    subset

(** Per-workload table: one row per workload, one column per series, plus
    per-suite gmean rows and an overall gmean row. Returns the overall
    gmeans in series order. *)
let per_workload_table ?(subset = workloads) ?(agg = Gmean) ~series () =
  let headers = "workload" :: "suite" :: List.map (fun s -> s.col) series in
  let values =
    List.map (fun (w : Defs.t) -> (w, List.map (fun s -> s.eval w) series)) subset
  in
  let row_of (w : Defs.t) vs =
    w.name :: Defs.suite_name w.suite :: List.map Table.f2 vs
  in
  let suite_rows =
    Defs.all_suites
    |> List.filter_map (fun suite ->
           let vs = List.filter (fun ((w : Defs.t), _) -> w.suite = suite) values in
           if vs = [] then None
           else
             let gm i = aggregate agg (List.map (fun (_, v) -> List.nth v i) vs) in
             Some
               ("gmean" :: Defs.suite_name suite
               :: List.mapi (fun i _ -> Table.f2 (gm i)) series))
  in
  let overall =
    List.mapi
      (fun i _ -> aggregate agg (List.map (fun (_, v) -> List.nth v i) values))
      series
  in
  let all_row = "gmean" :: "All" :: List.map Table.f2 overall in
  let rows =
    List.map (fun (w, vs) -> row_of w vs) values @ suite_rows @ [ all_row ]
  in
  Table.print ~headers rows;
  overall

(** Per-suite table for the sweeps: one row per suite plus All; one column
    per series. Returns the All-gmean per series. *)
let per_suite_table ?(subset = workloads) ~series () =
  let headers = "suite" :: List.map (fun s -> s.col) series in
  let values =
    List.map (fun (w : Defs.t) -> (w, List.map (fun s -> s.eval w) series)) subset
  in
  let suite_row suite =
    let vs = List.filter (fun ((w : Defs.t), _) -> w.suite = suite) values in
    if vs = [] then None
    else
      let gm i = Stats.gmean (List.map (fun (_, v) -> List.nth v i) vs) in
      Some (Defs.suite_name suite :: List.mapi (fun i _ -> Table.f2 (gm i)) series)
  in
  let overall =
    List.mapi (fun i _ -> Stats.gmean (List.map (fun (_, v) -> List.nth v i) values)) series
  in
  let rows =
    List.filter_map suite_row Defs.all_suites
    @ [ "All" :: List.map Table.f2 overall ]
  in
  Table.print ~headers rows;
  overall

(** Series of a cWSP-slowdown sweep over platform variants: [variants]
    are (column header, config) pairs. *)
let cwsp_sweep_series variants =
  List.map
    (fun (name, cfg) -> slowdown_series name Cwsp_schemes.Schemes.cwsp cfg)
    variants
