(** Differential oracle: the decoded fast path ([Cwsp_ir.Decode])
    checked against the reference semantics ([Machine]/[Multi]).

    [check]/[check_spmd] run both engines on one program and compare
    trace, outputs, step count, final memory and trap behaviour. *)

open Cwsp_ir

(** How an engine run ended; [Trapped]/[Out_of_fuel] are valid outcomes
    a differential check must also agree on. *)
type 'a outcome = Value of 'a | Trapped of string | Out_of_fuel

(** Run both engines on [p] and compare every observable. [Ok] carries
    the decoded outcome; [Error] describes the first divergence. *)
val check :
  ?fuel:int ->
  label:string ->
  Prog.t ->
  ((Decode.st * Trace.t) outcome, string) result

(** SPMD variant of [check] (same round-robin schedule on both sides). *)
val check_spmd :
  ?fuel:int ->
  ?quantum:int ->
  label:string ->
  Prog.t ->
  threads:int ->
  worker:string ->
  ((Decode.spmd * Trace.t array) outcome, string) result
