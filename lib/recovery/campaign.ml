(** Deterministic fault-injection campaign over the adversarial fault
    model ([Fault], [Harness.validate_fault]).

    A campaign is a (workload x fault-class x seed) matrix. Each cell
    gets its own independent RNG stream derived from the master seed and
    the cell's fixed position in the matrix ([Rng.stream]), so results
    are bit-identical no matter how the cells are fanned out — the
    caller can hand [run] a parallel [map] (e.g. [Executor.map_pool])
    without affecting a single outcome. All of one target's cells crash
    on one tracked run ([Harness.sweep]), whose results equal the cells'
    one-point runs ([run_cell]), so the program's prefix up to each
    crash point is paid once per target, not once per cell.

    The report counts, per fault class: cells where the adversary found
    a target (injected), cells where the hardening audits saw damage or
    refused (detected), and the recovery outcomes — recovered at the
    nominal boundary, degraded to a deeper verified boundary, refused
    (structured [Unrecoverable]: no image committed), and ESCAPED: the
    protocol claimed success but the final NVM/IO state diverged from
    the failure-free run. A hardened campaign must report zero escapes;
    escapes are exactly what the blind (hardening-disabled) protocol is
    expected to produce. *)

module Obs = Cwsp_obs.Obs

type target = {
  t_name : string;
  t_compiled : Cwsp_compiler.Pipeline.compiled;
  t_golden : Harness.golden;
}

let target ~name compiled =
  { t_name = name; t_compiled = compiled; t_golden = Harness.golden_of Main compiled }

(** One matrix position; [sp_index] is the cell's fixed rank in the
    matrix, from which its RNG stream is derived. *)
type cell_spec = {
  sp_target : target;
  sp_cls : Fault.cls;
  sp_rep : int; (* 0-based repetition index within (workload, class) *)
  sp_index : int;
}

type cell_outcome = Recovered | Degraded | Refused | Escaped | Masked

let outcome_name = function
  | Recovered -> "recovered"
  | Degraded -> "degraded"
  | Refused -> "refused"
  | Escaped -> "ESCAPED"
  | Masked -> "masked"

type cell = {
  c_workload : string;
  c_cls : Fault.cls;
  c_rep : int;
  c_seed : int; (* the derived per-cell seed fed to the harness *)
  c_crash_at : int;
  c_outcome : cell_outcome;
  c_injected : bool;
  c_detected : bool;
  c_detail : string;
  c_sweep_points : int;
  c_sweep_slice_points : int;
  c_sweep_failures : int;
  c_flight : string option; (* flight-recorder dump artifact when enabled *)
}

type class_stats = {
  st_cells : int;
  st_injected : int;
  st_detected : int;
  st_recovered : int;
  st_degraded : int;
  st_refused : int;
  st_escaped : int;
  st_masked : int;
}

type report = {
  r_hardened : bool;
  r_master_seed : int;
  r_window : int;
  r_seeds : int;
  r_workloads : string list;
  r_classes : Fault.cls list;
  r_cells : cell list; (* matrix order, independent of pool width *)
}

let outcome_code = function
  | Recovered -> 0
  | Degraded -> 1
  | Refused -> 2
  | Escaped -> 3
  | Masked -> 4

(* Stamp the campaign's own verdict into the cell's flight dump: reload
   the ring from the artifact, re-attach, append a [Cell] record in a
   fresh epoch and re-dump. The harness never sees this record — it is
   the campaign layer annotating the forensic timeline after the fact. *)
let stamp_cell_event ~sp ~outcome ~detections dump =
  match Cwsp_flight.Recorder.load_dump_string dump with
  | None -> Some dump (* unreadable artifact: ship it untouched *)
  | Some mem -> (
      match Cwsp_flight.Recorder.attach mem with
      | None -> Some dump
      | Some fr ->
          Cwsp_flight.Recorder.bump_epoch fr;
          Cwsp_flight.Recorder.append fr ~kind:Cwsp_flight.Recorder.Cell
            sp.sp_index (outcome_code outcome) detections sp.sp_rep;
          Some (Cwsp_flight.Recorder.dump_string mem))

(* The crash a cell draws from its own stream: the harness seed, then
   the crash step. *)
let draw ~master_seed (sp : cell_spec) =
  let rng = Cwsp_util.Rng.stream (Cwsp_util.Rng.create master_seed) sp.sp_index in
  let seed = Cwsp_util.Rng.int rng max_int in
  let crash_at =
    1 + Cwsp_util.Rng.int rng (max 1 (sp.sp_target.t_golden.g_steps - 2))
  in
  (seed, crash_at)

(* The cell a harness result makes, wherever it was computed. *)
let cell_of (sp : cell_spec) ~seed ~crash_at
    (res : (Harness.fault_report, string) result) : cell =
  let base outcome ~injected ~detected ~detail ~sweep ~slice ~fails ~fdump =
    {
      c_workload = sp.sp_target.t_name;
      c_cls = sp.sp_cls;
      c_rep = sp.sp_rep;
      c_seed = seed;
      c_crash_at = crash_at;
      c_outcome = outcome;
      c_injected = injected;
      c_detected = detected;
      c_detail = detail;
      c_sweep_points = sweep;
      c_sweep_slice_points = slice;
      c_sweep_failures = fails;
      c_flight =
        Option.bind fdump (fun d ->
            stamp_cell_event ~sp ~outcome
              ~detections:(if detected then 1 else 0)
              d);
    }
  in
  match res with
  | Error e ->
      base Masked ~injected:false ~detected:false ~detail:("harness: " ^ e)
        ~sweep:0 ~slice:0 ~fails:0 ~fdump:None
  | Ok r ->
      let injected = r.fr_injected <> None in
      let detected = r.fr_detections <> [] || r.fr_outcome = Harness.Refused in
      let detail =
        String.concat "; "
          (Option.to_list r.fr_injected
          @ (match r.fr_detections with
            | [] -> []
            | l -> [ String.concat " | " l ]))
      in
      let outcome =
        if not injected then Masked
        else if (not r.fr_state_ok) && r.fr_outcome <> Harness.Refused then
          Escaped
        else
          match r.fr_outcome with
          | Harness.Recovered -> Recovered
          | Harness.Degraded -> Degraded
          | Harness.Refused -> Refused
      in
      base outcome ~injected ~detected ~detail ~sweep:r.fr_sweep_points
        ~slice:r.fr_sweep_slice_points ~fails:r.fr_sweep_failures
        ~fdump:r.fr_flight

(* Tracing wrapper: one span per matrix cell plus a per-(class, outcome)
   counter, e.g. "campaign.torn-persist.recovered". Dynamic names are only
   built when instrumentation is on; outcomes themselves are computed by
   [compute] either way, so reports are unaffected. *)
let traced_cell compute (sp : cell_spec) : cell =
  if not !Obs.on then compute sp
  else
    Obs.time ~cat:"campaign"
      ~args:
        [
          ("rep", float_of_int sp.sp_rep);
          ("index", float_of_int sp.sp_index);
        ]
      (Printf.sprintf "cell:%s/%s" sp.sp_target.t_name (Fault.name sp.sp_cls))
      (fun () ->
        let c = compute sp in
        Obs.Counter.incr
          (Obs.Counter.make
             (Printf.sprintf "campaign.%s.%s" (Fault.name c.c_cls)
                (String.lowercase_ascii (outcome_name c.c_outcome))));
        c)

(** Run one cell as its own one-point sweep: the reference each cell of
    [run] equals. *)
let run_cell ?(flight = false) ~hardened ~window ~master_seed (sp : cell_spec) :
    cell =
  traced_cell
    (fun sp ->
      let seed, crash_at = draw ~master_seed sp in
      cell_of sp ~seed ~crash_at
        (Harness.validate_fault ~window ~golden:sp.sp_target.t_golden ~hardened
           ~flight ~fault:sp.sp_cls ~seed ~crash_at sp.sp_target.t_compiled))
    sp

(* Crash one target's cells [specs] on one tracked run and build them.
   Building them here frees the sweep's raw flight dumps once the
   target's cells are stamped, instead of holding every dump of the
   campaign twice until the run ends. *)
let sweep_target ~flight ~hardened ~window ~master_seed (specs : cell_spec array) =
  let t = specs.(0).sp_target in
  let draws = Array.map (draw ~master_seed) specs in
  let points =
    Array.to_list
      (Array.map2
         (fun sp (seed, crash_at) ->
           { Harness.cp_at = crash_at; cp_seed = seed; cp_hardened = hardened;
             cp_fault = Some sp.sp_cls })
         specs draws)
  in
  let results =
    Obs.time ~cat:"campaign"
      ~args:[ ("points", float_of_int (Array.length specs)) ]
      ("sweep:" ^ t.t_name)
      (fun () ->
        Harness.sweep ~window ~flight ~mode:Implicit ~launch:Main
          ~golden:t.t_golden t.t_compiled points)
    |> Array.of_list
  in
  Array.mapi
    (fun k sp ->
      let seed, crash_at = draws.(k) in
      cell_of sp ~seed ~crash_at (Result.map fst results.(k)))
    specs

(** Run the matrix, one tracked run per target. [map] fans the cells
    out (default: sequential); it MUST be order-preserving, e.g.
    [Executor.map_pool]. *)
let run ?(map = Array.map) ?(window = 16) ?(hardened = true)
    ?(master_seed = 2024) ?(flight = false) ~seeds ~classes targets : report =
  let specs =
    List.concat_map
      (fun t ->
        List.concat_map
          (fun cls -> List.init seeds (fun rep -> (t, cls, rep)))
          classes)
      targets
    |> List.mapi (fun i (t, cls, rep) ->
           { sp_target = t; sp_cls = cls; sp_rep = rep; sp_index = i })
    |> Array.of_list
  in
  (* Target [g]'s cells are the block [g * per, (g + 1) * per) of the
     matrix: grouped by list position, so a target listed twice is two
     groups. The first of a group's cells to run sweeps all of them,
     under the group's lock. *)
  let per = seeds * List.length classes in
  let groups = Array.init (List.length targets) (fun _ -> (Mutex.create (), ref None)) in
  let cell (sp : cell_spec) =
    let g = sp.sp_index / per in
    let lock, swept = groups.(g) in
    let cells =
      Mutex.protect lock (fun () ->
          match !swept with
          | Some cells -> cells
          | None ->
              let cells =
                sweep_target ~flight ~hardened ~window ~master_seed
                  (Array.sub specs (g * per) per)
              in
              swept := Some cells;
              cells)
    in
    cells.(sp.sp_index - (g * per))
  in
  (* Each target's leading cell first, so a pool starts every target's
     sweep before any worker waits on one; then matrix order. *)
  let leads, rest =
    List.partition (fun i -> i mod per = 0) (List.init (Array.length specs) Fun.id)
  in
  let order = Array.of_list (leads @ rest) in
  let out = map (traced_cell cell) (Array.map (fun i -> specs.(i)) order) in
  let cells = Array.copy out in
  Array.iteri (fun k i -> cells.(i) <- out.(k)) order;
  {
    r_hardened = hardened;
    r_master_seed = master_seed;
    r_window = window;
    r_seeds = seeds;
    r_workloads = List.map (fun t -> t.t_name) targets;
    r_classes = classes;
    r_cells = Array.to_list cells;
  }

let class_stats report cls =
  List.fold_left
    (fun st c ->
      if c.c_cls <> cls then st
      else
        {
          st_cells = st.st_cells + 1;
          st_injected = (st.st_injected + if c.c_injected then 1 else 0);
          st_detected = (st.st_detected + if c.c_detected then 1 else 0);
          st_recovered =
            (st.st_recovered + if c.c_outcome = Recovered then 1 else 0);
          st_degraded =
            (st.st_degraded + if c.c_outcome = Degraded then 1 else 0);
          st_refused = (st.st_refused + if c.c_outcome = Refused then 1 else 0);
          st_escaped = (st.st_escaped + if c.c_outcome = Escaped then 1 else 0);
          st_masked = (st.st_masked + if c.c_outcome = Masked then 1 else 0);
        })
    {
      st_cells = 0;
      st_injected = 0;
      st_detected = 0;
      st_recovered = 0;
      st_degraded = 0;
      st_refused = 0;
      st_escaped = 0;
      st_masked = 0;
    }
    report.r_cells

let summarize report = List.map (fun c -> (c, class_stats report c)) report.r_classes

let escaped report =
  List.filter (fun c -> c.c_outcome = Escaped) report.r_cells

(* Deterministic per-cell artifact name: derived from the cell's fixed
   matrix coordinates only, so a --jobs 4 run writes byte-identical
   files under byte-identical names as --jobs 1. *)
let flight_file_name c =
  Printf.sprintf "%s-%s-rep%03d.flight" c.c_workload (Fault.name c.c_cls)
    c.c_rep

let save_flights report dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.fold_left
    (fun n c ->
      match c.c_flight with
      | None -> n
      | Some dump ->
          let oc = open_out (Filename.concat dir (flight_file_name c)) in
          output_string oc dump;
          close_out oc;
          n + 1)
    0 report.r_cells

(** Total (mid-recovery crash sites, of which recovery-slice
    instructions) exercised by the sweep cells. *)
let sweep_coverage report =
  List.fold_left
    (fun (p, s) c -> (p + c.c_sweep_points, s + c.c_sweep_slice_points))
    (0, 0) report.r_cells

let render report =
  let b = Buffer.create 1024 in
  Printf.bprintf b "fault campaign: %s, %d workloads x %d classes x %d seeds (window %d, master seed %d)\n"
    (if report.r_hardened then "hardened" else "BLIND (hardening disabled)")
    (List.length report.r_workloads)
    (List.length report.r_classes)
    report.r_seeds report.r_window report.r_master_seed;
  Printf.bprintf b "%-15s %6s %9s %9s %10s %9s %8s %8s %7s\n" "class" "cells"
    "injected" "detected" "recovered" "degraded" "refused" "escaped" "masked";
  List.iter
    (fun (cls, st) ->
      Printf.bprintf b "%-15s %6d %9d %9d %10d %9d %8d %8d %7d\n"
        (Fault.name cls) st.st_cells st.st_injected st.st_detected
        st.st_recovered st.st_degraded st.st_refused st.st_escaped st.st_masked)
    (summarize report);
  let pts, slice_pts = sweep_coverage report in
  Printf.bprintf b
    "crash-during-recovery sweep: %d recovery-step crash sites (%d on slice \
     instructions)\n"
    pts slice_pts;
  (match escaped report with
  | [] -> Buffer.add_string b "escaped faults: none\n"
  | l ->
      Printf.bprintf b "escaped faults: %d\n" (List.length l);
      List.iter
        (fun c ->
          Printf.bprintf b "  ESCAPED %s %s seed=%d crash@%d: %s\n"
            c.c_workload (Fault.name c.c_cls) c.c_seed c.c_crash_at c.c_detail)
        l);
  Buffer.contents b

(* Header members on the first lines, then one class and one cell per
   line. *)
let to_json report =
  let open Cwsp_util.Json in
  let b = Buffer.create 4096 in
  let line fmt = Printf.bprintf b fmt in
  let rows f xs =
    List.iteri (fun i x -> line "%s\n%s" (if i > 0 then "," else "") (f x)) xs
  in
  line "{%s,%s,%s,%s,\n"
    (kv "hardened" (Bool report.r_hardened))
    (kv "master_seed" (int report.r_master_seed))
    (kv "window" (int report.r_window))
    (kv "seeds" (int report.r_seeds));
  line "%s,\n"
    (kv "workloads" (List (List.map (fun w -> Str w) report.r_workloads)));
  line "\"classes\":{";
  rows
    (fun (cls, st) ->
      kv (Fault.name cls)
        (Obj
           [
             ("cells", int st.st_cells); ("injected", int st.st_injected);
             ("detected", int st.st_detected);
             ("recovered", int st.st_recovered);
             ("degraded", int st.st_degraded); ("refused", int st.st_refused);
             ("escaped", int st.st_escaped); ("masked", int st.st_masked);
           ]))
    (summarize report);
  let pts, slice_pts = sweep_coverage report in
  line "},\n%s,\n"
    (kv "sweep" (Obj [ ("points", int pts); ("slice_points", int slice_pts) ]));
  line "%s,\n" (kv "escaped_total" (int (List.length (escaped report))));
  line "\"cells\":[";
  rows
    (fun c ->
      to_string
        (Obj
           [
             ("workload", Str c.c_workload);
             ("class", Str (Fault.name c.c_cls)); ("rep", int c.c_rep);
             ("seed", int c.c_seed);
             ("crash_at", int c.c_crash_at);
             ("outcome", Str (outcome_name c.c_outcome));
             ("injected", Bool c.c_injected); ("detected", Bool c.c_detected);
             ("sweep_points", int c.c_sweep_points);
             ("sweep_failures", int c.c_sweep_failures);
             ("detail", Str c.c_detail);
           ]))
    report.r_cells;
  line "\n]}\n";
  Buffer.contents b
