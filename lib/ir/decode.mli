(** Decoded execution core: one-shot pre-decoding of a validated [Prog.t]
    into flat, closure-compiled code (threaded dispatch, pre-resolved call
    targets / global addresses / [__out], unboxed packed-int event
    stream). The fast path of the benchmark harness; [Machine] in
    lib/interp remains the reference semantics, and the differential
    oracle ([Cwsp_interp.Oracle], test/test_decode.ml) holds the two
    bit-identical. See DESIGN.md §12.

    A state is traced or untraced. A traced state appends every commit
    event to a buffer that grows, and [trace] hands it over. An untraced
    state runs the same closures, but its buffer is a 64-slot ring that
    wraps and that nothing reads: its runs allocate almost nothing, and
    it is what a caller that wants only outputs, memory and steps (a
    golden run, a resumed recovery) runs. *)

(** Same exceptions as the reference interpreter ([Machine] re-exports
    these very constructors), raised under identical conditions. *)
exception Trap of string

exception Fuel_exhausted

(** Name of the output intrinsic ("__out"). *)
val out_intrinsic : string

(** A decoded program (pre-resolved, closure-compiled). *)
type t

(** A running (or finished) decoded machine. *)
type st

(** Instrumentation baked into the closures when a program is decoded.
    A hook sees the running state; an instruction no hook watches keeps
    the closure an uninstrumented decode gives it, so [no_hooks] decodes
    the plain core. Per instruction, [access] runs before it and the
    others after it, [store] before [atomic]; a hook after an
    instruction sees the state positioned after it, so [frames] reads
    where a resume there would start. Whatever a hook raises propagates
    out of the run. *)
type hooks = {
  access : (st -> Event.kind -> int -> unit) option;
      (** before a data access: [Load], [Store], [Atomic] (RMW or CAS) or
          [Flush], and its address (base register plus offset) *)
  store : (st -> Event.kind -> addr:int -> old:int -> value:int -> unit) option;
      (** a memory write by a [Store], a [Ckpt] or an [Atomic], with the
          word's value before and after it. A failed CAS writes nothing. *)
  boundary : (st -> int -> unit) option;  (** a region boundary, its id *)
  atomic : (st -> addr:int -> value:int -> wrote:bool -> unit) option;
      (** an atomic: its address, the word after it, and whether it
          wrote (a failed CAS did not) *)
  flush : (st -> int -> unit) option;  (** a flush, its address *)
  fence : (st -> unit) option;  (** a [Fence] or a [Pfence] *)
}

val no_hooks : hooks

(** One-shot pre-decode, instrumented with [hooks] (default
    [no_hooks]). Global addresses are laid out exactly as
    [Machine.link] lays them out. Decoding itself raises nothing on a
    validated program: an instruction the reference rejects fails when
    it executes. *)
val decode : ?hooks:hooks -> Prog.t -> t

(** The address of global [g] in that layout, if the program has it. *)
val global_addr : t -> string -> int option

(** Fresh machine on a fresh memory image with globals initialized;
    [main] must take no parameters. [traced] (default [true]) keeps the
    commit trace. *)
val create : ?tid:int -> ?traced:bool -> t -> st

(** One call frame of a stack to resume, in [Machine]'s terms. *)
type frame = {
  fn : int;  (** function index: its position in [Prog.funcs] *)
  blk : int;  (** block *)
  idx : int;
      (** next instruction in the block; the block's length is its
          terminator. A caller's is the instruction after its call. *)
  regs : int array;  (** register file, used as is (not copied) *)
  ret : int;
      (** the caller's register that receives this frame's return
          value, or -1 *)
}

(** [resume d ~mem ~frames ~outputs]: an untraced state on [mem]
    (global initializers are NOT re-applied) whose call stack is
    [frames], head the current frame, as [Machine.resume] would run it.
    The call depth, which picks the checkpoint slots, is the number of
    caller frames ([Invalid_argument] past [Layout.max_frames]);
    [outputs] are the outputs already produced, oldest first, which
    [outputs] then continues. The step count starts at 0. With no
    frames the state is halted. *)
val resume : ?tid:int -> t -> mem:Memory.t -> frames:frame list -> outputs:int list -> st

(** Run until halt or until the step count reaches [limit]; stops
    without raising. *)
val run_steps : st -> limit:int -> unit

(** Run until halt or until [fuel] steps (default 50M, as [Machine.run]);
    raises [Fuel_exhausted] if the budget runs out first. *)
val run : ?fuel:int -> st -> unit

(** Observable output, oldest first. *)
val outputs : st -> int list

val steps : st -> int
val tid : st -> int

(** The call stack, head the current frame, as [resume] takes it; empty
    once halted. [regs] are the live register arrays, not copies. *)
val frames : st -> frame list

val memory : st -> Memory.t
val halted : st -> bool

(** The commit-event stream as a [Trace.t]. Takes ownership of the
    internal buffer — call once, after the run completes. Raises
    [Invalid_argument] on an untraced state. *)
val trace : st -> Trace.t

(** Decode, run to completion, return (final state, trace) — fast-path
    equivalent of [Machine.trace_of_program]. *)
val trace_of_program : ?fuel:int -> Prog.t -> st * Trace.t

(** Decode and run untraced; returns the final state. *)
val run_functional : ?fuel:int -> Prog.t -> st

(** {2 Deterministic SPMD execution (mirrors [Multi])} *)

type spmd = {
  sts : st array;
  quantum : int;
  mutable turn : int;  (** the thread whose quantum runs next *)
  mutable used : int;  (** ... and how much of that quantum has run *)
}

(** The round-robin instruction quantum, [Multi.default_quantum]'s. *)
val default_quantum : int

(** [threads] machines sharing one memory image, thread [t] entering
    [worker](t); worker must take exactly the thread id. [quantum] sets
    the round-robin instruction quantum (default 32); [traced] as for
    [create]. *)
val create_spmd :
  ?quantum:int -> ?traced:bool -> t -> threads:int -> worker:string -> spmd

(** Run all threads to completion under the fixed round-robin quantum
    schedule (identical interleaving to [Multi.run]): one fuel unit per
    step, checked before it, [Fuel_exhausted] when the budget (default
    200M, shared) runs out. A thread left spinning uses up the fuel. The
    schedule's cursor stays in the [spmd], so a run the fuel stopped
    goes on, when run again, exactly as one run that never stopped. *)
val run_spmd : ?fuel:int -> spmd -> unit

(** One commit trace per thread — fast-path equivalent of
    [Multi.traces_of_program]. *)
val spmd_traces_of_program :
  ?fuel:int ->
  ?quantum:int ->
  Prog.t ->
  threads:int ->
  worker:string ->
  spmd * Trace.t array
