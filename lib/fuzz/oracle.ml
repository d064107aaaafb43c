(* The per-program oracle stack: baseline wild-screen, compile, verify,
   output equivalence, boundary-derived crash sweep, adversarial fault
   probes, explicit-persistency sweep, dynamic race cross-check. *)

open Cwsp_ir
open Cwsp_util
module Pipeline = Cwsp_compiler.Pipeline
module Harness = Cwsp_recovery.Harness
module Fault = Cwsp_recovery.Fault
module Verify = Cwsp_verify.Verify
module Diag = Cwsp_verify.Diag
module Obs = Cwsp_obs.Obs

type compile_fn = Pipeline.config -> Prog.t -> Pipeline.compiled

let default_compile config prog = Pipeline.compile ~config prog

type finding_kind = Compile_crash | Static_reject | Fault_escape | Verifier_escape

let kind_name = function
  | Compile_crash -> "compile-crash"
  | Static_reject -> "static-reject"
  | Fault_escape -> "fault-escape"
  | Verifier_escape -> "verifier-escape"

(* One experiment of a dynamic stage: where power fails, the harness
   seed, and (fault stage) the injected class. *)
type stage = Crash | Fault of Fault.cls | Explicit
type probe = { p_stage : stage; p_crash_at : int; p_seed : int }

type finding = { fk : finding_kind; detail : string; probe : probe option }

let first_token s =
  match String.index_opt s ' ' with
  | Some i -> String.sub s 0 i
  | None -> s

let finding_key f = kind_name f.fk ^ ":" ^ first_token f.detail

type eval = {
  e_cells : string list;
  e_findings : finding list;
  e_discarded : string option;
}

(* keep details single-line and short enough for the state file *)
let clean s =
  let s = String.map (fun c -> if c = '\n' || c = '\r' || c = '\t' then ' ' else c) s in
  if String.length s > 200 then String.sub s 0 200 else s

(* ---- baseline run with the wild-address screen ---- *)

let baseline_fuel = 2_000_000
let instrumented_fuel = 10_000_000

type base_run = { br_outputs : int list; br_mem : Memory.t }

(* Program data: everything but the checkpoint area and the flight
   ring, which instrumentation and recording legitimately add. *)
let not_data a = Layout.is_ckpt_addr a || Layout.is_flight_addr a

exception Wild of int

(* A data address the mutant manufactured and no sane program holds:
   negative, misaligned, in the checkpoint area or in the flight ring.
   Such inputs are discarded before they can fault the instrumented
   stack (or stomp the forensic ring) for uninteresting reasons. *)
let wild a = a < 0 || a land 7 <> 0 || not_data a

let screen a = if wild a then raise (Wild a)

(* Run the source program's [main] under the screen, untraced. *)
let baseline_run (prog : Prog.t) : (base_run, string) result =
  Obs.time ~cat:"fuzz" "baseline_run" (fun () ->
    let hooks = { Decode.no_hooks with access = Some (fun _ _ a -> screen a) } in
    let st = Decode.create ~traced:false (Decode.decode ~hooks prog) in
    match Decode.run ~fuel:baseline_fuel st with
    | () -> Ok { br_outputs = Decode.outputs st; br_mem = Decode.memory st }
    | exception Decode.Fuel_exhausted -> Error "fuel"
    | exception Wild _ -> Error "wild"
    | exception _ -> Error "trap")

(* The dynamic race monitor over an SPMD worker, every thread's accesses
   under the same screen as [baseline_run]: the baseline only runs
   [main], so a worker's wild pointer first shows up here. *)
let monitor (prog : Prog.t) =
  match
    Race_monitor.observe ~fuel:400_000 ~screen prog
      ~threads:3 ~worker:"worker"
  with
  | o -> Ok o
  | exception Wild a -> Error a

(* ---- crash-point schedule from the trace's boundary structure ---- *)

let boundary_crash_points rng ~trace ~max_points =
  let n = Trace.length trace in
  if n < 4 then []
  else begin
    let bps = ref [] in
    for i = 0 to n - 1 do
      if Event.tag (Trace.get trace i) = Event.tag_boundary then bps := i :: !bps
    done;
    let bps = List.rev !bps in
    (* one interval per boundary gap, plus the tail after the last
       boundary; crash points stay in [1, n-2] so recovery has work *)
    let hi_cap = n - 2 in
    let segs = ref [] and prev = ref 1 in
    List.iter
      (fun b ->
        let hi = min b hi_cap in
        if hi >= !prev then segs := (!prev, hi) :: !segs;
        prev := b + 1)
      bps;
    if hi_cap >= !prev then segs := (!prev, hi_cap) :: !segs;
    let segs = Array.of_list (List.rev !segs) in
    let nseg = Array.length segs in
    if nseg = 0 then [ 1 + Rng.int rng (max 1 (n - 2)) ]
    else begin
      let chosen =
        if nseg <= max_points then Array.to_list segs
        else if max_points <= 1 then [ segs.(0) ]
        else
          List.sort_uniq compare
            (List.init max_points (fun k -> segs.(k * (nseg - 1) / (max_points - 1))))
      in
      List.sort_uniq compare
        (List.map (fun (lo, hi) -> lo + Rng.int rng (hi - lo + 1)) chosen)
    end
  end

(* ---- certify, then the instrumented run ---- *)

let race_rule = function
  | Diag.Data_race | Diag.Unlocked_shared_write | Diag.Tid_overlap_unprovable
  | Diag.Redundant_atomic ->
    true
  | _ -> false

let spmd_worker (prog : Prog.t) =
  match Prog.find_func prog "worker" with
  | Some w when w.nparams = 1 -> true
  | _ -> false

(* Compile under [mode] (its name labels cells and details) and verify:
   rule firings become cells, the first non-race error a static finding.
   The compile when the verifier certified it. *)
let certify ~compile ~cell ~finding (name, config) prog =
  match compile config prog with
  | exception e ->
    finding Compile_crash (name ^ ": " ^ Printexc.to_string e);
    None
  | compiled -> (
    match Verify.run compiled with
    | exception _ ->
      finding Compile_crash (name ^ ": verifier raised");
      None
    | diags ->
      List.iter
        (fun (r, s) -> cell (Printf.sprintf "rule:%s:%s:%s" name r s))
        (Verify.fired diags);
      let errs = Verify.errors diags in
      (match List.find_opt (fun (d : Diag.t) -> not (race_rule d.rule)) errs with
      | Some d ->
        finding Static_reject
          (Printf.sprintf "%s %s: %s" (Diag.rule_name d.rule) name d.message)
      | None -> ());
      if errs = [] then Some compiled else None)

let implicit = ("cwsp", Pipeline.cwsp)
let explicit = ("cwsp-explicit", Pipeline.cwsp_explicit)

(* The configuration a stage's probes run on, and so their persistency
   mode: explicit probes the explicit binary, crash and fault probes the
   cWSP one. *)
let stage_config = function Explicit -> explicit | Crash | Fault _ -> implicit

(* [certify] for a predicate: no cells, no findings *)
let certified ~compile mode prog =
  certify ~compile ~cell:ignore ~finding:(fun _ _ -> ()) mode prog

(* The certified binary's failure-free run against the source baseline:
   the run as the probes' golden, its trace, and what differs ([None]:
   nothing). Raises if the binary traps or runs out of fuel. *)
let instrumented_run base (compiled : Pipeline.compiled) =
  Obs.time ~cat:"fuzz" "instrumented_run" (fun () ->
    let st, tr = Decode.trace_of_program ~fuel:instrumented_fuel compiled.prog in
    let golden = Harness.golden_of_run st in
    let diff =
      if golden.g_outputs <> base.br_outputs then Some `Outputs
      else if not (Memory.equal_except ~except:not_data golden.g_mem base.br_mem)
      then
        Some `Memory
      else None
    in
    (golden, tr, diff))

(* ---- the probe runner: the one place a dynamic stage meets the harness ---- *)

(* Run [probes], all of one persistency mode, on [compiled] against its
   failure-free run [golden], as one sweep of that mode's tracked run:
   explicit probes the explicit model; crash probes the blind plan on a
   faultless persistence path and fault probes the hardened ladder
   against their class. [flight] turns the recorder on (recording never
   changes a verdict). Each probe with its harness outcome, in probe
   order. *)
let run_probes ~flight ~golden compiled probes =
  match probes with
  | [] -> []
  | { p_stage; _ } :: _ ->
    let point p =
      match p.p_stage with
      | Fault cls ->
        { Harness.cp_at = p.p_crash_at; cp_seed = p.p_seed; cp_hardened = true;
          cp_fault = Some cls }
      | Crash | Explicit -> Harness.clean_point ~seed:p.p_seed ~crash_at:p.p_crash_at
    in
    List.combine probes
      (Harness.sweep ~flight ~mode:(snd (stage_config p_stage)).persist_mode
         ~launch:Main ~golden compiled (List.map point probes))

(* Did [p] catch recovery giving back a wrong state? A fault probe the
   harness could not stage is skipped, not broken. *)
let broke p : Harness.outcome -> bool = function
  | Ok (r, _) -> (not r.fr_state_ok) || r.fr_sweep_failures > 0
  | Error _ -> ( match p.p_stage with Fault _ -> false | Crash | Explicit -> true)

let outcome_name = function
  | Harness.Recovered -> "recovered"
  | Harness.Degraded -> "degraded"
  | Harness.Refused -> "refused"

(* ---- the full oracle stack ---- *)

let evaluate ?(compile = default_compile) rng (prog : Prog.t) : eval =
  let cells = ref [] and findings = ref [] in
  let cell c = cells := c :: !cells in
  let finding ?probe fk detail =
    findings := { fk; detail = clean detail; probe } :: !findings
  in
  let finish discarded =
    {
      e_cells = List.sort_uniq compare !cells;
      e_findings = List.rev !findings;
      e_discarded = discarded;
    }
  in
  (* run a stage's probes, then each one's coverage cell and, when it
     broke, its finding, in probe order *)
  let score ~golden compiled probes =
    List.iter
      (fun (p, res) ->
        match p.p_stage with
        | Crash | Explicit -> (
          let stage = if p.p_stage = Crash then "crash" else "explicit" in
          match Harness.require_clean res with
          | Ok _ -> cell (stage ^ ":recovered")
          | Error e ->
            cell (stage ^ ":diverged");
            finding ~probe:p Verifier_escape
              (Printf.sprintf "%s @%d: %s" stage p.p_crash_at e))
        | Fault cls -> (
          match res with
          | Ok (r, _) ->
            let oname = outcome_name r.fr_outcome in
            cell (Printf.sprintf "fault:%s:%s" (Fault.name cls) oname);
            if broke p res then
              finding ~probe:p Fault_escape
                (Printf.sprintf "%s crash@%d: wrong final state (%s)"
                   (Fault.name cls) p.p_crash_at oname)
          | Error _ -> cell (Printf.sprintf "fault:%s:skipped" (Fault.name cls))))
      (run_probes ~flight:false ~golden compiled probes)
  in
  if Validate.check prog <> [] then begin
    cell "outcome:invalid";
    finish (Some "invalid")
  end
  else if not (Wellformed.defined prog) then begin
    (* an uninitialized register read would be misreported downstream as
       a slice defect of the compiler — screen it like a wild address *)
    cell "outcome:undef";
    finish (Some "undef")
  end
  else
    match baseline_run prog with
    | Error why ->
      cell ("outcome:baseline-" ^ why);
      finish (Some ("baseline-" ^ why))
    | Ok base ->
      cell "outcome:ok";
      (* ---- implicit mode: the full cWSP pipeline ---- *)
      (match certify ~compile ~cell ~finding implicit prog with
      | None -> ()
      | Some compiled -> (
        (* statically certified: every dynamic divergence from here on
           is a verifier escape *)
        match instrumented_run base compiled with
        | exception e ->
          cell "crash:trap";
          finding Verifier_escape
            ("semantic instrumented run failed: " ^ Printexc.to_string e)
        | golden, tr, diff -> (
          List.iter cell (Coverage.shape_cells compiled ~trace:tr);
          match diff with
          | Some `Outputs ->
            finding Verifier_escape "semantic outputs diverge (cwsp vs source)"
          | Some `Memory ->
            finding Verifier_escape "semantic final data memory diverges"
          | None ->
            (* WITCHER sweep: crash once per inter-boundary interval *)
            let crashes =
              List.map
                (fun crash_at ->
                  { p_stage = Crash; p_crash_at = crash_at;
                    p_seed = Rng.int rng 1_000_000 })
                (boundary_crash_points rng ~trace:tr ~max_points:12)
            in
            (* adversarial fault classes: two per exec *)
            let classes = Array.of_list Fault.all in
            let n = Array.length classes in
            let i = Rng.int rng n in
            let j = (i + 1 + Rng.int rng (n - 1)) mod n in
            let faults =
              List.map
                (fun ci ->
                  let crash_at = 1 + Rng.int rng (max 1 (golden.g_steps - 2)) in
                  { p_stage = Fault classes.(ci); p_crash_at = crash_at;
                    p_seed = Rng.int rng 1_000_000 })
                [ i; j ]
            in
            (* one tracked run serves them all *)
            score ~golden compiled (crashes @ faults);
            (* dynamic race cross-check of a certified SPMD worker *)
            if spmd_worker prog then begin
              match monitor prog with
              | Error _ -> cell "monitor:wild"
              | Ok o ->
                if o.races <> [] then begin
                  cell "monitor:raced";
                  finding Verifier_escape
                    (Printf.sprintf "monitor saw %d race(s) on a certified worker"
                       (List.length o.races))
                end
                else if o.hung then cell "monitor:hung"
                else cell "monitor:clean"
            end)));
      (* ---- explicit mode: the persist tier's dynamic ground truth ---- *)
      (match certify ~compile ~cell ~finding explicit prog with
      | None -> ()
      | Some compiled -> (
        match instrumented_run base compiled with
        | exception e ->
          finding Verifier_escape
            ("explicit instrumented run failed: " ^ Printexc.to_string e)
        | _, _, Some _ ->
          finding Verifier_escape "explicit semantics diverge from source"
        | golden, tr, None ->
          score ~golden compiled
            (List.map
               (fun crash_at -> { p_stage = Explicit; p_crash_at = crash_at; p_seed = 0 })
               (boundary_crash_points rng ~trace:tr ~max_points:6))));
      finish None

(* ---- reproduction: a finding's own probe, then its stage's fixed search ---- *)

(* The probes that re-test [p]'s stage on a run [golden] with trace
   [trace]: [p] first, then a fixed search (seed 1 over the boundary
   points for crashes; a quarter, half and three quarters of the run x
   seeds 1-3 for faults; the boundary points for explicit). Probes past
   the end of the run are dropped: a minimized program can halt before
   the point its original broke at. *)
let search p ~(golden : Harness.golden) ~trace =
  let at stage seed crash_at =
    { p_stage = stage; p_crash_at = crash_at; p_seed = seed }
  in
  let boundaries max_points =
    boundary_crash_points (Rng.create 0x9e3779b9) ~trace ~max_points
  in
  let g = golden.g_steps in
  let fixed =
    match p.p_stage with
    | Crash -> List.map (at Crash 1) (boundaries 12)
    | Explicit -> List.map (at Explicit 0) (boundaries 6)
    | Fault _ ->
      List.concat_map
        (fun c -> List.map (fun s -> at p.p_stage s c) [ 1; 2; 3 ])
        (List.filter (fun c -> c >= 1 && c < g - 1) [ g / 4; g / 2; 3 * g / 4 ])
  in
  List.filter (fun q -> q.p_crash_at < g) (p :: fixed)

(* Re-run a probed finding's stage on [prog] through [evaluate]'s own
   certify, instrumented run and probe runner: the first probe, in
   search order, that breaks, with the recorder's dump when [flight].
   The head of the search (the finding's own probe, unless the run now
   halts before it) runs alone, and only when it holds does the rest
   run, as one sweep: the minimizer asks this of every candidate, and
   the finding's own probe usually still breaks. *)
let first_broken ~compile ~flight p prog =
  Obs.time ~cat:"fuzz" "first_broken" (fun () ->
    match baseline_run prog with
    | Error _ -> None
    | Ok base -> (
      match certified ~compile (stage_config p.p_stage) prog with
      | None -> None
      | Some compiled -> (
        match instrumented_run base compiled with
        | _, _, Some _ -> None
        | golden, trace, None -> (
          let first_break probes =
            List.find_map
              (fun (q, res) ->
                match res with
                | _ when not (broke q res) -> None
                | Ok ((r : Harness.fault_report), _) -> Some r.fr_flight
                | Error _ -> Some None)
              (run_probes ~flight ~golden compiled probes)
          in
          match search p ~golden ~trace with
          | [] -> None
          | q :: rest -> (
            match first_break [ q ] with
            | Some _ as hit -> hit
            | None -> first_break rest)))))

let reproduces ?(compile = default_compile) (f : finding) (prog : Prog.t) : bool =
  try
    Validate.check prog = [] && Wellformed.defined prog
    &&
    match (f.fk, f.probe) with
    | Compile_crash, _ -> (
      match compile Pipeline.cwsp prog with
      | exception _ -> true
      | _ -> (
        match compile Pipeline.cwsp_explicit prog with
        | exception _ -> true
        | _ -> false))
    | Static_reject, _ ->
      let rule = first_token f.detail in
      let hits config =
        match compile config prog with
        | exception _ -> false
        | compiled ->
          List.exists
            (fun (d : Diag.t) ->
              (not (race_rule d.rule)) && Diag.rule_name d.rule = rule)
            (Verify.errors (Verify.run compiled))
      in
      hits Pipeline.cwsp || hits Pipeline.cwsp_explicit
    | (Fault_escape | Verifier_escape), Some p ->
      first_broken ~compile ~flight:false p prog <> None
    | Fault_escape, None -> false
    | Verifier_escape, None -> (
      (* the unprobed stages: a certified binary whose own run diverges
         from the source, or a worker the monitor sees race *)
      match baseline_run prog with
      | Error _ -> false
      | Ok base -> (
        let diverges mode =
          match certified ~compile mode prog with
          | None -> false
          | Some compiled -> (
            match instrumented_run base compiled with
            | exception _ -> true
            | _, _, diff -> diff <> None)
        in
        match first_token f.detail with
        | "semantic" -> diverges implicit
        | "explicit" -> diverges explicit
        | "monitor" -> (
          spmd_worker prog
          && certified ~compile implicit prog <> None
          &&
          match monitor prog with
          | Ok o -> o.races <> []
          | Error _ -> false)
        | _ -> false))
  with _ -> false

(* ---- forensic flight dump for a finding ---- *)

let flight_dump ?(compile = default_compile) (f : finding) (prog : Prog.t) :
    string option =
  match f.probe with
  | None -> None
  | Some p -> (
    try Option.join (first_broken ~compile ~flight:true p prog) with _ -> None)
