(** The benchmark harness: regenerates every table and figure of the
    paper's evaluation (Section IX).

    Usage:
      dune exec bench/main.exe                    # every figure
      dune exec bench/main.exe -- list            # list experiment ids
      dune exec bench/main.exe -- fig13 hw        # selected experiments only
      dune exec bench/main.exe -- --jobs 4        # domain-parallel execution
      dune exec bench/main.exe -- json [id..]     # timed run -> BENCH_<run>.json
      dune exec bench/main.exe -- compare A B     # perf trajectory A -> B
      dune exec bench/main.exe -- history         # trajectory over BENCH_*.json

    [--jobs N] sets the executor's domain-pool width for every
    experiment plan (plan/execute/render split, DESIGN.md §5); the
    rendered output is byte-identical for any N. [json] runs each
    experiment separately, timing it, and writes per-experiment
    wall-clock, overall elapsed time and headline numbers to
    BENCH_<timestamp>.json so the perf trajectory stays machine-readable
    across PRs.

    Absolute numbers will not match the paper (the substrate is a
    deterministic OCaml simulator, not gem5 + x86 hardware); the shapes —
    who wins, by roughly what factor, where the knees are — are the
    reproduction target. EXPERIMENTS.md records paper-vs-measured per
    figure. *)

open Cwsp_experiments

module Json = Cwsp_util.Json

(* ---- machine-readable timing runs ---- *)

(* Per-experiment wall-clock samples collected across this process's
   timed runs; the end-of-run summary reports the tail (through p999,
   the ROADMAP tail-latency item) on stderr. 1-2-5 grid, 1ms..2000s. *)
let wall_hist =
  Cwsp_util.Stats.Histogram.create
    [|
      0.001; 0.002; 0.005; 0.01; 0.02; 0.05; 0.1; 0.2; 0.5; 1.0; 2.0; 5.0;
      10.0; 20.0; 50.0; 100.0; 200.0; 500.0; 1000.0; 2000.0;
    |]

(** Run every experiment (or the [ids] subset) separately, timing
    plan+execute+render, and write BENCH_<timestamp>.json. *)
let json_run ~jobs ?(ids = []) () =
  let selected =
    if ids = [] then Index.all
    else
      List.map
        (fun id ->
          match Index.find id with
          | Some e -> e
          | None ->
            Printf.eprintf "unknown experiment %S (try 'list')\n" id;
            exit 1)
        ids
  in
  let t_all0 = Unix.gettimeofday () in
  let results =
    List.map
      (fun (x : Index.entry) ->
        let t0 = Unix.gettimeofday () in
        let headline = Index.run_one x in
        let dt = Unix.gettimeofday () -. t0 in
        Cwsp_util.Stats.Histogram.add wall_hist dt;
        (x, dt, headline))
      selected
  in
  let overall = Unix.gettimeofday () -. t_all0 in
  let tm = Unix.localtime t_all0 in
  let run_id =
    Printf.sprintf "%04d%02d%02d_%02d%02d%02d" (tm.tm_year + 1900)
      (tm.tm_mon + 1) tm.tm_mday tm.tm_hour tm.tm_min tm.tm_sec
  in
  let path = Printf.sprintf "BENCH_%s.json" run_id in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"run\": %s,\n  \"jobs\": %d,\n" (Json.quote run_id)
    jobs;
  Printf.fprintf oc "  \"overall_elapsed_s\": %.3f,\n" overall;
  Printf.fprintf oc "  \"experiments\": [\n";
  List.iteri
    (fun i ((x : Index.entry), dt, headline) ->
      Printf.fprintf oc "    %s%s\n"
        (Json.to_string
           (Obj
              [
                ("id", Str x.id); ("title", Str x.etitle);
                ("wall_s", Num (Printf.sprintf "%.3f" dt));
                ( "headline",
                  Option.fold ~none:Json.Null ~some:Json.float headline );
              ]))
        (if i = List.length results - 1 then "" else ","))
    results;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "\nwrote %s (overall %.1fs, %d experiments, jobs=%d)\n" path
    overall (List.length results) jobs

(* ---- reading BENCH json files ---- *)

(** One BENCH file: its run id (the file name when absent) and, per
    experiment in file order, [(id, (wall_s, headline))]. *)
let load_run path =
  let j = Json.of_file path in
  let get key conv v = Option.bind (Json.member key v) conv in
  let run =
    Option.value ~default:(Filename.remove_extension path)
      (get "run" Json.to_string_opt j)
  in
  let exp e =
    Option.map
      (fun id ->
        ( id,
          (get "wall_s" Json.to_float_opt e, get "headline" Json.to_float_opt e)
        ))
      (get "id" Json.to_string_opt e)
  in
  ( run,
    List.filter_map exp
      (Option.fold ~none:[] ~some:Json.to_list (Json.member "experiments" j)) )

(* ---- perf trajectory across every committed BENCH json file ---- *)

(** [history ()]: fold all BENCH_*.json files in the working directory
    (run ids sort chronologically) into one per-experiment trajectory
    table — wall seconds and headline per run — so the whole perf
    history is readable at a glance without pairwise [compare] calls. *)
let history () =
  let files =
    Sys.readdir "." |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"BENCH_" f
           && Filename.check_suffix f ".json")
    |> List.sort compare
  in
  if files = [] then begin
    Printf.eprintf "history: no BENCH_*.json files in %s\n" (Sys.getcwd ());
    exit 1
  end;
  let runs =
    List.filter_map
      (fun path ->
        match load_run path with
        | exception (Sys_error _ | Json.Parse_error _) ->
          Printf.eprintf "history: skipping unreadable %s\n" path;
          None
        | run -> Some run)
      files
  in
  (* experiment rows in first-appearance order across runs *)
  let ids = ref [] in
  List.iter
    (fun (_, exps) ->
      List.iter
        (fun (id, _) -> if not (List.mem id !ids) then ids := id :: !ids)
        exps)
    runs;
  let ids = List.rev !ids in
  let cell (wall, headline) =
    let h = match headline with Some h -> Printf.sprintf "%.4g" h | None -> "-" in
    match wall with
    | Some w -> Printf.sprintf "%.1fs %s" w h
    | None -> "- " ^ h
  in
  Printf.printf "perf history: %d runs, %d experiments (cell = wall, headline)\n\n"
    (List.length runs) (List.length ids);
  Cwsp_util.Table.print
    ~headers:("experiment" :: List.map fst runs)
    (List.map
       (fun id ->
         id
         :: List.map
              (fun (_, exps) ->
                match List.assoc_opt id exps with
                | None -> "-"
                | Some v -> cell v)
              runs)
       ids);
  (* total wall across the runs' joined experiments, oldest -> newest *)
  Printf.printf "\ntotal wall: %s\n"
    (String.concat " -> "
       (List.map
          (fun (_, exps) ->
            let t =
              List.fold_left
                (fun acc (_, (w, _)) -> acc +. Option.value ~default:0.0 w)
                0.0 exps
            in
            Printf.sprintf "%.1fs" t)
          runs))

(* ---- perf-trajectory comparison of two BENCH json files ---- *)

(** [compare_runs old new]: per-experiment wall/headline delta table
    (joined on id), then a verdict. Exit code 1 when the total wall
    over the joined experiments regresses by more than 10% or any
    headline drifts (an experiment gaining a headline it previously
    lacked is progress, not drift). *)
let compare_runs old_path new_path =
  let load path =
    List.map
      (fun (id, (wall, headline)) ->
        (id, (Option.value ~default:0.0 wall, headline)))
      (snd (load_run path))
  in
  let old_run = load old_path and new_run = load new_path in
  let fmt_h = function Some h -> Printf.sprintf "%.4g" h | None -> "-" in
  let drifted = ref [] in
  let dropped = ref 0 in
  let wall_old = ref 0.0 and wall_new = ref 0.0 in
  let rows =
    List.filter_map
      (fun (id, (ow, oh)) ->
        match List.assoc_opt id new_run with
        | None ->
          incr dropped;
          Some [ id; Cwsp_util.Table.f2 ow; "-"; "-"; fmt_h oh; "-"; "dropped" ]
        | Some (nw, nh) ->
          wall_old := !wall_old +. ow;
          wall_new := !wall_new +. nw;
          let speedup = if nw > 0.0 then ow /. nw else Float.infinity in
          let drift =
            match (oh, nh) with
            | Some a, Some b ->
              Float.abs (b -. a) > 1e-6 *. Float.max 1.0 (Float.abs a)
            | Some _, None -> true (* lost a headline *)
            | None, _ -> false (* gaining one is progress *)
          in
          if drift then drifted := id :: !drifted;
          Some
            [
              id;
              Cwsp_util.Table.f2 ow;
              Cwsp_util.Table.f2 nw;
              Printf.sprintf "%.2fx" speedup;
              fmt_h oh;
              fmt_h nh;
              (if drift then "DRIFT" else "ok");
            ])
      old_run
  in
  let added =
    List.filter (fun (id, _) -> List.assoc_opt id old_run = None) new_run
    |> List.map (fun (id, (nw, nh)) ->
           [ id; "-"; Cwsp_util.Table.f2 nw; "-"; "-"; fmt_h nh; "added" ])
  in
  Printf.printf "perf trajectory: %s -> %s\n\n" old_path new_path;
  Cwsp_util.Table.print
    ~headers:[ "experiment"; "old s"; "new s"; "speedup"; "old headline";
               "new headline"; "verdict" ]
    (rows @ added);
  let ratio = if !wall_old > 0.0 then !wall_new /. !wall_old else 1.0 in
  Printf.printf "\ntotal wall (joined): %.1fs -> %.1fs (%.2fx)\n" !wall_old
    !wall_new
    (if !wall_new > 0.0 then !wall_old /. !wall_new else Float.infinity);
  (* wall comparison is only meaningful when both runs covered the same
     experiments: a subset run pays cold-cache costs that a full run
     amortizes across experiments, so partial joins gate on headline
     drift only *)
  let same_coverage = added = [] && !dropped = 0 in
  let wall_regressed = same_coverage && ratio > 1.10 in
  if wall_regressed then
    Printf.printf "FAIL: total wall regressed by %.0f%% (>10%% budget)\n"
      ((ratio -. 1.0) *. 100.0);
  if not same_coverage then
    Printf.printf
      "note: coverage differs (subset run) — wall gate skipped, headline \
       gate active\n";
  if !drifted <> [] then
    Printf.printf "FAIL: headline drift in: %s\n"
      (String.concat ", " (List.rev !drifted));
  if wall_regressed || !drifted <> [] then exit 1;
  Printf.printf "OK: no wall regression, no headline drift\n"

(* ---- CLI ---- *)

(* End-of-run summary of the shared memo stores (satellite of the obs
   work): hit/miss/race totals per cache, on stderr so every rendered
   figure on stdout stays byte-identical to the golden output. *)
let print_cache_summary () =
  Printf.eprintf "cache summary:";
  List.iter
    (fun (name, (st : Cwsp_core.Store.stats), entries) ->
      Printf.eprintf " %s %d entries, %d hits, %d misses, %d races;" name
        entries st.hits st.misses st.races)
    (Cwsp_core.Api.cache_stats ());
  Printf.eprintf "\n";
  if Cwsp_util.Stats.Histogram.count wall_hist > 0 then
    Printf.eprintf "experiment wall: %s\n"
      (Cwsp_util.Stats.Histogram.summary wall_hist)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* pull out --jobs N / --trace FILE / --metrics FILE; remaining words
     select modes/experiments *)
  let jobs = ref 1 in
  let trace = ref None in
  let metrics = ref None in
  let rec strip = function
    | [] -> []
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some v when v >= 1 -> jobs := v
      | _ ->
        Printf.eprintf "--jobs expects a positive integer, got %S\n" n;
        exit 1);
      strip rest
    | "--trace" :: f :: rest ->
      trace := Some f;
      strip rest
    | "--metrics" :: f :: rest ->
      metrics := Some f;
      strip rest
    | [ ("--jobs" | "--trace" | "--metrics") ] ->
      Printf.eprintf "--jobs/--trace/--metrics expect an argument\n";
      exit 1
    | x :: rest -> x :: strip rest
  in
  let args = strip args in
  Cwsp_core.Executor.set_default_jobs !jobs;
  Cwsp_obs.Obs.configure ?trace:!trace ?metrics:!metrics ();
  (match args with
  | [] -> Index.run_all ()
  | [ "list" ] ->
    List.iter (fun (e : Index.entry) -> Printf.printf "%-10s %s\n" e.id e.etitle)
      Index.all;
    print_endline "json       timed full run -> BENCH_<run>.json";
    print_endline "compare    delta table of two BENCH json files";
    print_endline "history    trajectory table over all BENCH_*.json"
  | "json" :: ids -> json_run ~jobs:!jobs ~ids ()
  | [ "history" ] ->
    history ();
    exit 0
  | [ "compare"; old_path; new_path ] ->
    compare_runs old_path new_path;
    exit 0
  | "compare" :: _ ->
    Printf.eprintf "compare expects exactly two BENCH json paths\n";
    exit 1
  | ids ->
    List.iter
      (fun id ->
        match Index.find id with
        | Some e -> ignore (Index.run_one e)
        | None ->
          Printf.eprintf "unknown experiment %S (try 'list')\n" id;
          exit 1)
      ids);
  print_cache_summary ();
  Cwsp_obs.Obs.finalize ()
