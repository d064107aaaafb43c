(** verify-all — sweep the static crash-consistency verifier (syntactic
    tiers + the semantic slice checker + the SPMD race tier) over every
    registry workload and every parallel workload under each
    instrumented pipeline configuration. One line per (workload, config)
    pair — or a JSON report with [--format json] — and a non-zero exit
    if any error-severity diagnostic is found. Parallel workloads that
    are deliberately racy ([W_parallel.expect_racy]) invert the check:
    the race tier MUST reject them, and a clean report is the failure.

    [--jobs N] fans the (workload, config) pairs out over the shared
    domain pool; the report order is the declaration order regardless
    of N, so outputs are byte-identical across pool widths. *)

open Cwsp_compiler

let base_configs =
  [ Pipeline.cwsp; Pipeline.cwsp_no_prune; Pipeline.regions_only ]

type row = {
  workload : string;
  config : string;
  regions : int;
  expect_racy : bool;
  diags : Cwsp_verify.Diag.t list;
}

type pair =
  | Seq of Cwsp_workloads.Defs.t * Pipeline.config
  | Spmd of Cwsp_workloads.W_parallel.t * Pipeline.config

let spmd_threads = 4

let pair_label = function
  | Seq (w, config) ->
    w.Cwsp_workloads.Defs.name ^ "/" ^ Pipeline.config_name config
  | Spmd (w, config) ->
    Printf.sprintf "%s@%d/%s" w.Cwsp_workloads.W_parallel.pname spmd_threads
      (Pipeline.config_name config)

let verify_pair (p : pair) : row =
  match p with
  | Seq (w, config) ->
    let compiled = Pipeline.compile ~config (w.build ~scale:1) in
    {
      workload = w.name;
      config = Pipeline.config_name config;
      regions = Pipeline.nboundaries compiled;
      expect_racy = false;
      diags = Cwsp_verify.Verify.(normalize (run compiled));
    }
  | Spmd (w, config) ->
    let compiled =
      Pipeline.compile ~config (w.pbuild ~scale:1 ~threads:spmd_threads)
    in
    {
      workload = Printf.sprintf "%s@%d" w.pname spmd_threads;
      config = Pipeline.config_name config;
      regions = Pipeline.nboundaries compiled;
      expect_racy = w.expect_racy;
      diags = Cwsp_verify.Verify.(normalize (run compiled));
    }

let is_race_error (d : Cwsp_verify.Diag.t) =
  Cwsp_verify.Diag.is_error d
  && match d.rule with
     | Data_race | Unlocked_shared_write | Tid_overlap_unprovable -> true
     | _ -> false

(* A deliberately racy workload passes iff the race tier rejected it and
   nothing else went wrong; everything else passes iff error-free. *)
let row_failed row =
  let errs = Cwsp_verify.Verify.errors row.diags in
  if row.expect_racy then
    List.exists (fun d -> not (is_race_error d)) errs
    || not (List.exists is_race_error errs)
  else errs <> []

let print_text rows =
  Array.iter
    (fun row ->
      let errs = Cwsp_verify.Verify.errors row.diags in
      let warnings = List.length row.diags - List.length errs in
      let status =
        if row_failed row then Printf.sprintf "FAIL (%d errors)" (List.length errs)
        else if row.expect_racy then
          Printf.sprintf "ok (%d expected race errors)" (List.length errs)
        else if warnings > 0 then Printf.sprintf "ok (%d warnings)" warnings
        else "ok"
      in
      Printf.printf "%-12s %-14s regions=%-5d %s\n" row.workload row.config
        row.regions status;
      if row_failed row && errs <> [] then begin
        print_string (Cwsp_verify.Verify.report errs);
        print_newline ()
      end)
    rows

let print_json rows =
  (* The diagnostics array keeps its one-record-per-line layout. *)
  let row_json row =
    let errs = Cwsp_verify.Verify.errors row.diags in
    let open Cwsp_util.Json in
    let fields =
      [
        ("workload", Str row.workload); ("config", Str row.config);
        ("regions", int row.regions); ("errors", int (List.length errs));
        ("warnings", int (List.length row.diags - List.length errs));
        ("expected_racy", Bool row.expect_racy);
        ("failed", Bool (row_failed row));
      ]
    in
    Printf.sprintf "{%s,\"diagnostics\":%s}"
      (String.concat "," (List.map (fun (k, v) -> kv k v) fields))
      (Cwsp_verify.Verify.report_json row.diags)
  in
  print_string "[\n";
  Array.iteri
    (fun i row ->
      print_string (row_json row);
      if i < Array.length rows - 1 then print_string ",";
      print_newline ())
    rows;
  print_string "]\n"

let () =
  let jobs = ref 1 in
  let format = ref "text" in
  let persist_mode = ref "implicit" in
  let trace = ref "" in
  let metrics = ref "" in
  Arg.parse
    [
      ("--jobs", Arg.Set_int jobs, "N  verify N (workload, config) pairs at a time");
      ( "--format",
        Arg.Symbol ([ "text"; "json" ], fun s -> format := s),
        "  report format (default text)" );
      ( "--persist-mode",
        Arg.Symbol ([ "implicit"; "explicit" ], fun s -> persist_mode := s),
        "  explicit compiles every config with flush/pfence insertion and \
         runs the persist tier (default implicit)" );
      ( "--trace",
        Arg.Set_string trace,
        "FILE  write a Chrome trace-event JSON profile (Perfetto)" );
      ( "--metrics",
        Arg.Set_string metrics,
        "FILE  write flat JSON metrics (per-tier latency histograms)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "verify_all [--jobs N] [--format text|json] [--trace FILE] [--metrics FILE]";
  Cwsp_obs.Obs.configure
    ?trace:(if !trace = "" then None else Some !trace)
    ?metrics:(if !metrics = "" then None else Some !metrics)
    ();
  let configs =
    if !persist_mode = "explicit" then
      List.map Pipeline.explicit_of base_configs
    else base_configs
  in
  let pairs =
    Array.of_list
      (List.concat_map
         (fun (w : Cwsp_workloads.Defs.t) ->
           List.map (fun config -> Seq (w, config)) configs)
         Cwsp_workloads.Registry.all
      @ List.concat_map
          (fun (w : Cwsp_workloads.W_parallel.t) ->
            List.map (fun config -> Spmd (w, config)) configs)
          Cwsp_workloads.W_parallel.all)
  in
  let rows =
    Cwsp_core.Executor.map_pool ~cat:"verify"
      ~label:(fun i -> pair_label pairs.(i))
      ~jobs:!jobs verify_pair pairs
  in
  (match !format with "json" -> print_json rows | _ -> print_text rows);
  Cwsp_obs.Obs.finalize ();
  let failures =
    Array.fold_left (fun acc row -> if row_failed row then acc + 1 else acc) 0 rows
  in
  if failures > 0 then begin
    Printf.eprintf "verify-all: %d failing (workload, config) pairs\n" failures;
    exit 1
  end
