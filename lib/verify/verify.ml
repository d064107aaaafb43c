(** Top-level driver of the static crash-consistency verifier.

    [run] re-derives the cWSP invariants appropriate to the compile
    configuration — structural lints always; idempotence (antidependence
    freedom + boundary placement) and boundary-id discipline once region
    formation ran; checkpoint coverage once checkpoints were inserted —
    and returns the combined diagnostics. The verifier shares only the
    base analyses ([Alias], [Liveness], [Cfg], [Loops]) with the
    compiler; every judgement about boundaries, checkpoints and slices is
    recomputed from the final program, translation-validation style, so
    a bug in [Region_form] or [Pass] shows up as a diagnostic here rather
    than as silent state corruption after a power failure. *)

open Cwsp_ir
open Cwsp_compiler
module Obs = Cwsp_obs.Obs

(* Per-tier wall-clock distributions across every [run] in the process. *)
let h_structural = Obs.Hist.make "verify.tier_us.structural"
let h_ids = Obs.Hist.make "verify.tier_us.ids"
let h_idem = Obs.Hist.make "verify.tier_us.idem"
let h_ckpt = Obs.Hist.make "verify.tier_us.ckpt"
let h_semantic = Obs.Hist.make "verify.tier_us.semantic"
let h_persist = Obs.Hist.make "verify.tier_us.persist"
let h_race = Obs.Hist.make "verify.tier_us.race"

(* Time one verifier tier: a span on the trace plus a sample in the
   tier's latency histogram. Single branch when instrumentation is off. *)
let timed h name f =
  if not !Obs.on then f ()
  else begin
    Obs.span_begin ~cat:"verify" name;
    let t0 = Obs.now_us () in
    Fun.protect ~finally:Obs.span_end (fun () ->
        let r = f () in
        Obs.Hist.add h (Obs.now_us () -. t0);
        r)
  end

let run ?(sem = true) (c : Pipeline.compiled) : Diag.t list =
  let cfg = c.Pipeline.cconfig in
  let (prog : Prog.t) = c.Pipeline.prog in
  let per_func f = List.concat_map (fun (_, fn) -> f fn) prog.funcs in
  let structural =
    timed h_structural "tier:structural" (fun () ->
        per_func Struct_check.check_func)
  in
  let ids =
    if cfg.Pipeline.region_formation then
      timed h_ids "tier:ids" (fun () ->
          Struct_check.id_diags
            ~slices_len:(Array.length c.Pipeline.slices)
            ~boundary_owner:c.Pipeline.boundary_owner prog)
    else []
  in
  let idem =
    if cfg.Pipeline.region_formation then
      timed h_idem "tier:idem" (fun () -> per_func Idem_check.check)
    else []
  in
  let ckpt =
    if cfg.Pipeline.region_formation && cfg.Pipeline.checkpoints then
      timed h_ckpt "tier:ckpt" (fun () -> Ckpt_check.check c)
    else []
  in
  let semantic =
    if sem && cfg.Pipeline.region_formation && cfg.Pipeline.checkpoints then
      timed h_semantic "tier:semantic" (fun () -> Sem_check.check c)
    else []
  in
  let persist =
    (* only explicit-persistency compiles promise static durability; the
       implicit mode persists in hardware, so the obligations are vacuous *)
    if cfg.Pipeline.persist_mode = Pipeline.Explicit
       && cfg.Pipeline.region_formation
    then timed h_persist "tier:persist" (fun () -> per_func Persist_check.check_func)
    else []
  in
  let race =
    (* SPMD data-race freedom is a property of the final program under
       every configuration (the SC-for-DRF premise of [Decode.run_spmd]),
       so the tier arms on the entry convention alone. *)
    if Race_check.spmd_entry prog <> None then
      timed h_race "tier:race" (fun () -> Race_check.check prog)
    else []
  in
  structural @ ids @ idem @ ckpt @ semantic @ persist @ race

let errors diags = List.filter Diag.is_error diags

let normalize diags = List.sort_uniq Diag.compare diags

let fired diags =
  List.sort_uniq compare
    (List.map
       (fun (d : Diag.t) ->
         (Diag.rule_name d.rule, Diag.severity_name d.severity))
       diags)

let report diags =
  String.concat "\n" (List.map Diag.to_string (normalize diags))

let report_json diags =
  match normalize diags with
  | [] -> "[]"
  | ds ->
    Printf.sprintf "[\n  %s\n]"
      (String.concat ",\n  "
         (List.map (fun d -> Cwsp_util.Json.to_string (Diag.to_json d)) ds))

let check_exn c =
  match errors (run c) with
  | [] -> ()
  | errs ->
    failwith
      (Printf.sprintf "cwsp_verify: %d error(s) in compiled program:\n%s"
         (List.length errs) (report errs))

(** Make every [Pipeline.compile] in the process verify its own output. *)
let install_pipeline_hook () = Pipeline.set_post_compile_hook check_exn
