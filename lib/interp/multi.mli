(** Deterministic SPMD multi-threaded execution.

    [threads] machines share one NVM memory image; thread [t] starts in
    [worker](t). Scheduling is round-robin with a fixed instruction
    quantum, so multi-threaded runs are bit-reproducible. Memory is
    sequentially consistent under the interleaving — the contract the
    paper assumes for data-race-free programs (Section VIII). Checkpoint
    slots are per-thread, matching per-core checkpoint storage. *)

open Cwsp_ir

type t = {
  linked : Machine.linked;
  mem : Memory.t;
  machines : Machine.t array;
  quantum : int;
}

(** The round-robin instruction quantum [create] defaults to. *)
val default_quantum : int

(** Initialize globals once and spawn [threads] machines, each entering
    [worker](tid); the worker must take exactly one parameter. [quantum]
    sets the round-robin instruction quantum (default 32); different
    quanta give different — but each individually reproducible —
    interleavings. *)
val create : ?quantum:int -> Machine.linked -> threads:int -> worker:string -> t

(** Run all threads round-robin to completion. [hooks tid] supplies the
    per-thread hooks. Raises [Machine.Fuel_exhausted] when the combined
    budget runs out; a thread left spinning uses it up. *)
val run : ?fuel:int -> ?quantum:int -> t -> (int -> Machine.hooks) -> unit

(** SPMD trace generation: one commit trace per thread. *)
val traces_of_program :
  ?fuel:int ->
  ?quantum:int ->
  Prog.t ->
  threads:int ->
  worker:string ->
  t * Trace.t array
