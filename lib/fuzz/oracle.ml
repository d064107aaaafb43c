(* The per-program oracle stack: baseline wild-screen, compile, verify,
   output equivalence, boundary-derived crash sweep, adversarial fault
   probes, explicit-persistency sweep, dynamic race cross-check. *)

open Cwsp_ir
open Cwsp_util
module Pipeline = Cwsp_compiler.Pipeline
module Machine = Cwsp_interp.Machine
module Harness = Cwsp_recovery.Harness
module Fault = Cwsp_recovery.Fault
module Verify = Cwsp_verify.Verify
module Diag = Cwsp_verify.Diag

type compile_fn = Pipeline.config -> Prog.t -> Pipeline.compiled

let default_compile config prog = Pipeline.compile ~config prog

type finding_kind = Compile_crash | Static_reject | Fault_escape | Verifier_escape

let kind_name = function
  | Compile_crash -> "compile-crash"
  | Static_reject -> "static-reject"
  | Fault_escape -> "fault-escape"
  | Verifier_escape -> "verifier-escape"

let kind_of_name = function
  | "compile-crash" -> Some Compile_crash
  | "static-reject" -> Some Static_reject
  | "fault-escape" -> Some Fault_escape
  | "verifier-escape" -> Some Verifier_escape
  | _ -> None

type finding = { fk : finding_kind; detail : string }

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

let is_fatal e = List.exists (fun f -> f.fk = Verifier_escape) e.e_findings

(* keep details single-line and short enough for the state file *)
let clean s =
  let s = String.map (fun c -> if c = '\n' || c = '\r' || c = '\t' then ' ' else c) s in
  if String.length s > 200 then String.sub s 0 200 else s

(* ---- baseline run with the wild-address screen ---- *)

let baseline_fuel = 2_000_000
let instrumented_fuel = 10_000_000

type base_run = { br_outputs : int list; br_data : (int * int) list }

let data_words mem =
  let out = ref [] in
  Memory.iter
    (fun a v ->
      if not (Layout.is_ckpt_addr a || Layout.is_flight_addr a) then
        out := (a, v) :: !out)
    mem;
  List.sort compare !out

exception Wild of int

(* Screen the data access [m] is about to make: negative, misaligned,
   checkpoint-area or flight-recorder addresses mean the mutant
   manufactured a pointer no sane program holds — such inputs are
   discarded before they can fault the instrumented stack (or stomp the
   forensic ring) for uninteresting reasons. *)
let screen_step (m : Machine.t) =
  match m.frames with
  | fr :: _ when fr.idx < Array.length fr.lf.code.(fr.blk) -> (
    let screen base off =
      let a = fr.regs.(base) + off in
      if a < 0 || a land 7 <> 0 || Layout.is_ckpt_addr a || Layout.is_flight_addr a
      then raise (Wild a)
    in
    match fr.lf.code.(fr.blk).(fr.idx) with
    | Types.Load (_, b, o) | Types.Store (b, o, _) | Types.Flush (b, o) ->
      screen b o
    | Types.Atomic_rmw (_, _, b, o, _) | Types.Cas (_, b, o, _, _) -> screen b o
    | _ -> ())
  | _ -> ()

(* Step the source program's [main] under the screen. *)
let baseline_run (prog : Prog.t) : (base_run, string) result =
  let m = Machine.create (Machine.link prog) in
  let steps = ref 0 in
  try
    while m.status = Machine.Running && !steps < baseline_fuel do
      incr steps;
      screen_step m;
      Machine.step m Machine.no_hooks
    done;
    if m.status = Machine.Running then Error "fuel"
    else Ok { br_outputs = Machine.outputs m; br_data = data_words m.mem }
  with
  | Wild _ -> Error "wild"
  | Machine.Trap _ -> Error "trap"
  | _ -> Error "trap"

(* The dynamic race monitor over an SPMD worker, every thread's accesses
   under the same screen as [baseline_run]: the baseline only runs
   [main], so a worker's wild pointer first shows up here. *)
let monitor (prog : Prog.t) =
  match
    Cwsp_interp.Race_monitor.observe ~fuel:400_000 ~screen:screen_step prog
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

(* ---- the full oracle stack ---- *)

let race_rule = function
  | Diag.Data_race | Diag.Unlocked_shared_write | Diag.Tid_overlap_unprovable
  | Diag.Redundant_atomic ->
    true
  | _ -> false

let spmd_worker (prog : Prog.t) =
  match Prog.find_func prog "worker" with
  | Some w when w.nparams = 1 -> true
  | _ -> false

let evaluate ?(compile = default_compile) rng (prog : Prog.t) : eval =
  let cells = ref [] and findings = ref [] in
  let cell c = cells := c :: !cells in
  let finding fk detail = findings := { fk; detail = clean detail } :: !findings in
  let finish discarded =
    {
      e_cells = List.sort_uniq compare !cells;
      e_findings = List.rev !findings;
      e_discarded = discarded;
    }
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
      (match compile Pipeline.cwsp prog with
      | exception e -> finding Compile_crash ("cwsp: " ^ Printexc.to_string e)
      | compiled -> (
        let diags = try Some (Verify.run compiled) with _ -> None in
        match diags with
        | None -> finding Compile_crash "cwsp: verifier raised"
        | Some diags ->
          List.iter
            (fun (r, s) -> cell (Printf.sprintf "rule:cwsp:%s:%s" r s))
            (Verify.fired diags);
          let errs = Verify.errors diags in
          let compiler_errs =
            List.filter (fun (d : Diag.t) -> not (race_rule d.rule)) errs
          in
          (match compiler_errs with
          | d :: _ ->
            finding Static_reject
              (Printf.sprintf "%s cwsp: %s" (Diag.rule_name d.rule) d.message)
          | [] -> ());
          if errs = [] then begin
            (* statically certified: every dynamic divergence from here
               on is a verifier escape *)
            match Machine.trace_of_program ~fuel:instrumented_fuel compiled.prog with
            | exception e ->
              cell "crash:trap";
              finding Verifier_escape
                ("semantic instrumented run failed: " ^ Printexc.to_string e)
            | m, tr ->
              List.iter cell (Coverage.shape_cells compiled ~trace:tr);
              if Machine.outputs m <> base.br_outputs then
                finding Verifier_escape "semantic outputs diverge (cwsp vs source)"
              else if data_words m.mem <> base.br_data then
                finding Verifier_escape "semantic final data memory diverges"
              else begin
                (* WITCHER sweep: crash once per inter-boundary interval *)
                List.iter
                  (fun crash_at ->
                    match
                      Harness.validate ~seed:(Rng.int rng 1_000_000) ~crash_at
                        compiled
                    with
                    | Ok _ -> cell "crash:recovered"
                    | Error e ->
                      cell "crash:diverged";
                      finding Verifier_escape (Printf.sprintf "crash @%d: %s" crash_at e))
                  (boundary_crash_points rng ~trace:tr ~max_points:12);
                (* adversarial fault classes: two per exec *)
                let classes = Array.of_list Fault.all in
                let steps = Machine.steps m in
                let i = Rng.int rng (Array.length classes) in
                let j = (i + 1 + Rng.int rng (Array.length classes - 1))
                        mod Array.length classes in
                List.iter
                  (fun ci ->
                    let cls = classes.(ci) in
                    let crash_at = 1 + Rng.int rng (max 1 (steps - 2)) in
                    match
                      Harness.validate_fault ~hardened:true ~fault:cls
                        ~seed:(Rng.int rng 1_000_000) ~crash_at compiled
                    with
                    | Ok r ->
                      let oname =
                        match r.fr_outcome with
                        | Harness.Recovered -> "recovered"
                        | Harness.Degraded -> "degraded"
                        | Harness.Refused -> "refused"
                      in
                      cell (Printf.sprintf "fault:%s:%s" (Fault.name cls) oname);
                      if (not r.fr_state_ok) || r.fr_sweep_failures > 0 then
                        finding Fault_escape
                          (Printf.sprintf "%s crash@%d: wrong final state (%s)"
                             (Fault.name cls) crash_at oname)
                    | Error _ -> cell (Printf.sprintf "fault:%s:skipped" (Fault.name cls)))
                  [ i; j ];
                (* dynamic race cross-check of a certified SPMD worker *)
                if spmd_worker prog then begin
                  match monitor prog with
                  | Error _ -> cell "monitor:wild"
                  | Ok o ->
                    if o.races <> [] then begin
                      cell "monitor:raced";
                      finding Verifier_escape
                        (Printf.sprintf
                           "monitor saw %d race(s) on a certified worker"
                           (List.length o.races))
                    end
                    else if o.hung then cell "monitor:hung"
                    else cell "monitor:clean"
                end
              end
          end));
      (* ---- explicit mode: the persist tier's dynamic ground truth ---- *)
      (match compile Pipeline.cwsp_explicit prog with
      | exception e ->
        finding Compile_crash ("cwsp-explicit: " ^ Printexc.to_string e)
      | compiled -> (
        let diags = try Some (Verify.run compiled) with _ -> None in
        match diags with
        | None -> finding Compile_crash "cwsp-explicit: verifier raised"
        | Some diags ->
          List.iter
            (fun (r, s) -> cell (Printf.sprintf "rule:cwsp-explicit:%s:%s" r s))
            (Verify.fired diags);
          let errs = Verify.errors diags in
          let compiler_errs =
            List.filter (fun (d : Diag.t) -> not (race_rule d.rule)) errs
          in
          (match compiler_errs with
          | d :: _ ->
            finding Static_reject
              (Printf.sprintf "%s cwsp-explicit: %s" (Diag.rule_name d.rule)
                 d.message)
          | [] -> ());
          if errs = [] then begin
            match Machine.trace_of_program ~fuel:instrumented_fuel compiled.prog with
            | exception e ->
              finding Verifier_escape
                ("explicit instrumented run failed: " ^ Printexc.to_string e)
            | m, tr ->
              if
                Machine.outputs m <> base.br_outputs
                || data_words m.mem <> base.br_data
              then
                finding Verifier_escape "explicit semantics diverge from source"
              else
                List.iter
                  (fun crash_at ->
                    match Harness.validate_explicit ~crash_at compiled with
                    | Ok _ -> cell "explicit:recovered"
                    | Error e ->
                      cell "explicit:diverged";
                      finding Verifier_escape
                        (Printf.sprintf "explicit @%d: %s" crash_at e))
                  (boundary_crash_points rng ~trace:tr ~max_points:6)
          end));
      finish None

(* ---- targeted reproduction predicates for the minimizer ---- *)

let certified_compile (compile : compile_fn) config prog =
  match compile config prog with
  | exception _ -> None
  | compiled ->
    if Verify.errors (Verify.run compiled) = [] then Some compiled else None

let semantic_diverges base compiled =
  match Machine.trace_of_program ~fuel:instrumented_fuel compiled.Pipeline.prog with
  | exception _ -> Some "trap"
  | m, _ ->
    if Machine.outputs m <> base.br_outputs then Some "outputs"
    else if data_words m.mem <> base.br_data then Some "memory"
    else None

let reproduces ?(compile = default_compile) ~kind ~detail (prog : Prog.t) : bool =
  try
    if Validate.check prog <> [] || not (Wellformed.defined prog) then false
    else
      match kind with
      | Compile_crash ->
        (match compile Pipeline.cwsp prog with
        | exception _ -> true
        | _ -> (
          match compile Pipeline.cwsp_explicit prog with
          | exception _ -> true
          | _ -> false))
      | Static_reject ->
        let rule = first_token detail in
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
      | Fault_escape -> (
        match Fault.of_name (first_token detail) with
        | None -> false
        | Some cls -> (
          match baseline_run prog with
          | Error _ -> false
          | Ok _ -> (
            match certified_compile compile Pipeline.cwsp prog with
            | None -> false
            | Some compiled ->
              let g = Harness.golden_of compiled in
              let escaped crash_at seed =
                match
                  Harness.validate_fault ~golden:g ~hardened:true ~fault:cls
                    ~seed ~crash_at compiled
                with
                | Ok r -> (not r.fr_state_ok) || r.fr_sweep_failures > 0
                | Error _ -> false
              in
              let pts =
                List.filter
                  (fun p -> p >= 1 && p < g.g_steps - 1)
                  [ g.g_steps / 4; g.g_steps / 2; (3 * g.g_steps) / 4 ]
              in
              List.exists (fun p -> List.exists (escaped p) [ 1; 2; 3 ]) pts)))
      | Verifier_escape -> (
        match baseline_run prog with
        | Error _ -> false
        | Ok base -> (
          let stage = first_token detail in
          match stage with
          | "semantic" -> (
            match certified_compile compile Pipeline.cwsp prog with
            | None -> false
            | Some compiled -> semantic_diverges base compiled <> None)
          | "crash" -> (
            match certified_compile compile Pipeline.cwsp prog with
            | None -> false
            | Some compiled -> (
              match
                Machine.trace_of_program ~fuel:instrumented_fuel compiled.prog
              with
              | exception _ -> true
              | _, tr ->
                let rng = Rng.create 0x9e3779b9 in
                List.exists
                  (fun crash_at ->
                    match Harness.validate ~seed:1 ~crash_at compiled with
                    | Ok _ -> false
                    | Error _ -> true)
                  (boundary_crash_points rng ~trace:tr ~max_points:12)))
          | "explicit" -> (
            match certified_compile compile Pipeline.cwsp_explicit prog with
            | None -> false
            | Some compiled -> (
              match
                Machine.trace_of_program ~fuel:instrumented_fuel compiled.prog
              with
              | exception _ -> true
              | m, tr ->
                Machine.outputs m <> base.br_outputs
                || data_words m.mem <> base.br_data
                || List.exists
                     (fun crash_at ->
                       match Harness.validate_explicit ~crash_at compiled with
                       | Ok _ -> false
                       | Error _ -> true)
                     (boundary_crash_points (Rng.create 0x9e3779b9) ~trace:tr
                        ~max_points:6)))
          | "monitor" -> (
            if not (spmd_worker prog) then false
            else
              match certified_compile compile Pipeline.cwsp prog with
              | None -> false
              | Some _ -> (
                match monitor prog with
                | Ok o -> o.races <> []
                | Error _ -> false))
          | _ -> false))
  with _ -> false

(* ---- forensic flight dump for a finding ---- *)

(* "crash@12" / "@12" -> 12 *)
let parse_at tok =
  match String.index_opt tok '@' with
  | None -> None
  | Some i ->
    let rest = String.sub tok (i + 1) (String.length tok - i - 1) in
    let rest =
      match String.index_opt rest ':' with
      | Some j -> String.sub rest 0 j
      | None -> rest
    in
    int_of_string_opt rest

let second_token s =
  match String.index_opt s ' ' with
  | None -> None
  | Some i -> Some (first_token (String.sub s (i + 1) (String.length s - i - 1)))

let flight_dump ?(compile = default_compile) ~kind ~detail (prog : Prog.t) :
    string option =
  try
    match kind with
    | Compile_crash | Static_reject -> None
    | Fault_escape -> (
      (* mirror [reproduces]'s search, recorder on; ship the dump of the
         first crash that escapes *)
      match Fault.of_name (first_token detail) with
      | None -> None
      | Some cls -> (
        match baseline_run prog with
        | Error _ -> None
        | Ok _ -> (
          match certified_compile compile Pipeline.cwsp prog with
          | None -> None
          | Some compiled ->
            let g = Harness.golden_of compiled in
            let dump = ref None in
            let escaped crash_at seed =
              match
                Harness.validate_fault ~golden:g ~hardened:true ~flight:true
                  ~fault:cls ~seed ~crash_at compiled
              with
              | Ok r when (not r.fr_state_ok) || r.fr_sweep_failures > 0 ->
                dump := r.fr_flight;
                true
              | _ -> false
            in
            let pts =
              List.filter
                (fun p -> p >= 1 && p < g.g_steps - 1)
                [ g.g_steps / 4; g.g_steps / 2; 3 * g.g_steps / 4 ]
            in
            ignore
              (List.exists (fun p -> List.exists (escaped p) [ 1; 2; 3 ]) pts);
            !dump)))
    | Verifier_escape -> (
      match (first_token detail, second_token detail) with
      | "crash", Some tok -> (
        match (parse_at tok, certified_compile compile Pipeline.cwsp prog) with
        | Some crash_at, Some compiled -> (
          (* no injected fault: a plain power cut at the diverging point,
             recovered by the hardened ladder with the recorder on *)
          match
            Harness.validate_fault ~hardened:true ~flight:true ~seed:1
              ~crash_at compiled
          with
          | Ok r -> r.fr_flight
          | Error _ -> None)
        | _ -> None)
      | "explicit", Some tok -> (
        match
          (parse_at tok, certified_compile compile Pipeline.cwsp_explicit prog)
        with
        | Some crash_at, Some compiled ->
          let dump = ref None in
          (match
             Harness.validate_explicit ~flight:true
               ~on_flight:(fun d -> dump := Some d)
               ~crash_at compiled
           with
          | Ok _ | Error _ -> ());
          !dump
        | _ -> None)
      | _ -> None)
  with _ -> None
