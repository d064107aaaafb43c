(** Functional interpreter for IR programs.

    The machine is an explicit-state stepper so that higher layers can do
    more than run-to-completion: the recovery harness snapshots frames at
    region boundaries, logs store old-values, stops at arbitrary
    instruction counts and resumes — everything needed to emulate power
    failure and validate the paper's recovery protocol. *)

open Cwsp_ir

exception Fuel_exhausted
exception Trap of string

(** {2 Linking} *)

type lfunc = {
  lf_name : string;
  findex : int;
  nregs : int;
  nparams : int;
  code : Types.instr array array; (** per block *)
  terms : Types.term array;
}

type linked = {
  source : Prog.t;
  lfuncs : lfunc array;
  fidx : (string, int) Hashtbl.t;
  global_addr : (string, int) Hashtbl.t;
  main_idx : int;
}

(** Name of the output intrinsic: [call __out(v)] appends [v] to the
    machine's observable output vector. *)
val out_intrinsic : string

(** Resolve functions and lay out globals (64-byte aligned, from
    [Layout.global_base]). *)
val link : Prog.t -> linked

(** {2 Machine state} *)

type frame = {
  lf : lfunc;
  regs : int array;
  mutable blk : int;
  mutable idx : int;
  ret_to : Types.reg option; (** caller register receiving the return value *)
}

type status = Running | Halted

type t = {
  linked : linked;
  mem : Memory.t;
  mutable frames : frame list; (** head = current frame *)
  mutable status : status;
  mutable steps : int;
  mutable outputs : int list;  (** reversed observable output *)
  mutable depth : int;         (** call-stack depth, for checkpoint slots *)
  tid : int;
}

(** Fresh machine with globals initialized; [main] must take no
    parameters. *)
val create : ?tid:int -> linked -> t

(** Observable output, oldest first. *)
val outputs : t -> int list

val steps : t -> int

(** Resume a machine on an existing (post-recovery) memory image from
    call stack [frames] (head = current frame, positioned just after a
    region boundary or at a snapshot). Global initializers are NOT
    re-applied. *)
val resume :
  ?tid:int -> linked -> mem:Memory.t -> frames:frame list -> depth:int -> t

(** {2 Execution} *)

(** Hooks invoked during stepping: [on_event] receives packed commit
    events ([Event]); [on_store] every memory write with its old value
    (what undo logging consumes). *)
type hooks = {
  on_event : int -> unit;
  on_store : addr:int -> old:int -> value:int -> unit;
}

val no_hooks : hooks

(** Execute one instruction (or terminator). Raises [Trap] on dynamic
    errors; no-op once halted. *)
val step : t -> hooks -> unit

(** Run until halt; raises [Fuel_exhausted] beyond [fuel] steps. *)
val run : ?fuel:int -> t -> hooks -> unit

(** Link, run to completion, return the machine and its commit trace. *)
val trace_of_program : ?fuel:int -> Prog.t -> t * Trace.t

(** Run functionally with no trace. *)
val run_functional : ?fuel:int -> Prog.t -> t
