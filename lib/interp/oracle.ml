(** Differential oracle: the decoded fast path ([Cwsp_ir.Decode])
    checked against the reference semantics ([Machine]/[Multi]).

    The harness runs the decoded core everywhere ([Cwsp_core.Api.trace],
    the MP experiment); this module is the seam where the two engines
    meet: [check]/[check_spmd] run both on one program and fail unless
    trace, outputs, step count, final memory and trap behaviour are all
    identical. test/test_decode.ml drives the comparison across every
    compile configuration of the workload registry, the MP experiment's
    thread counts and a fuzzer. *)

open Cwsp_ir

(* Both engines raise the very same exception constructors
   ([Machine.Trap] is a rebinding of [Decode.Trap]), so one catch
   covers either. *)
type 'a outcome = Value of 'a | Trapped of string | Out_of_fuel

let outcome f : _ outcome =
  match f () with
  | v -> Value v
  | exception Decode.Trap m -> Trapped m
  | exception Decode.Fuel_exhausted -> Out_of_fuel

let shape = function
  | Value _ -> "completed"
  | Trapped m -> "trapped: " ^ m
  | Out_of_fuel -> "ran out of fuel"

let fail label fmt =
  Printf.ksprintf (fun s -> Error (Printf.sprintf "[%s] %s" label s)) fmt

let check_pair ~label ~(tid : int) ~(fast_tr : Trace.t) ~(ref_tr : Trace.t)
    ~(fast_out : int list) ~(ref_out : int list) ~(fast_steps : int)
    ~(ref_steps : int) =
  match Trace.first_diff fast_tr ref_tr with
  | Some i ->
    fail label
      "thread %d: traces diverge at event %d (decoded len %d, reference len \
       %d; decoded ev %s, reference ev %s)"
      tid i (Trace.length fast_tr) (Trace.length ref_tr)
      (if i < Trace.length fast_tr then string_of_int (Trace.get fast_tr i)
       else "-")
      (if i < Trace.length ref_tr then string_of_int (Trace.get ref_tr i)
       else "-")
  | None ->
    if fast_out <> ref_out then
      fail label "thread %d: outputs diverge (decoded %d values, reference %d)"
        tid (List.length fast_out) (List.length ref_out)
    else if fast_steps <> ref_steps then
      fail label "thread %d: step counts diverge (decoded %d, reference %d)"
        tid fast_steps ref_steps
    else Ok ()

let check_memory ~label fast_mem ref_mem =
  match Memory.first_diff fast_mem ref_mem with
  | None -> Ok ()
  | Some (addr, dv, rv) ->
    fail label "final memory diverges at 0x%x (decoded %d, reference %d)" addr
      dv rv

(** Full differential run of one single-threaded program: both engines,
    every observable compared. [Ok] with the decoded outcome, or [Error]
    with a description of the first divergence. *)
let check ?fuel ~label (p : Prog.t) :
    ((Decode.st * Trace.t) outcome, string) result =
  let fast = outcome (fun () -> Decode.trace_of_program ?fuel p) in
  let ref_ = outcome (fun () -> Machine.trace_of_program ?fuel p) in
  match (fast, ref_) with
  | Value (st, tr), Value (m, mtr) ->
    Result.bind
      (check_pair ~label ~tid:0 ~fast_tr:tr ~ref_tr:mtr
         ~fast_out:(Decode.outputs st) ~ref_out:(Machine.outputs m)
         ~fast_steps:(Decode.steps st) ~ref_steps:(Machine.steps m))
      (fun () ->
        Result.map
          (fun () -> fast)
          (check_memory ~label (Decode.memory st) m.Machine.mem))
  | Trapped a, Trapped b when a = b -> Ok fast
  | Out_of_fuel, Out_of_fuel -> Ok fast
  | _ ->
    fail label "outcomes diverge (decoded %s, reference %s)" (shape fast)
      (shape ref_)

(** Full differential run of one SPMD program (same schedule both sides). *)
let check_spmd ?fuel ?quantum ~label (p : Prog.t) ~threads ~worker :
    ((Decode.spmd * Trace.t array) outcome, string) result =
  let fast =
    outcome (fun () ->
        Decode.spmd_traces_of_program ?fuel ?quantum p ~threads ~worker)
  in
  let ref_ =
    outcome (fun () -> Multi.traces_of_program ?fuel ?quantum p ~threads ~worker)
  in
  match (fast, ref_) with
  | Value (sp, trs), Value (mt, mtrs) ->
    let rec per_thread tid =
      if tid >= threads then Ok ()
      else
        let st = sp.Decode.sts.(tid) and m = mt.Multi.machines.(tid) in
        Result.bind
          (check_pair ~label ~tid ~fast_tr:trs.(tid) ~ref_tr:mtrs.(tid)
             ~fast_out:(Decode.outputs st) ~ref_out:(Machine.outputs m)
             ~fast_steps:(Decode.steps st) ~ref_steps:(Machine.steps m))
          (fun () -> per_thread (tid + 1))
    in
    Result.bind (per_thread 0) (fun () ->
        Result.map
          (fun () -> fast)
          (check_memory ~label
             (Decode.memory sp.Decode.sts.(0))
             mt.Multi.mem))
  | Trapped a, Trapped b when a = b -> Ok fast
  | Out_of_fuel, Out_of_fuel -> Ok fast
  | _ ->
    fail label "outcomes diverge (decoded %s, reference %s)" (shape fast)
      (shape ref_)
