(** Dynamic data-race monitor: vector-clock (FastTrack-style)
    happens-before checking over one concrete interleaving of the
    decoded core's round-robin SPMD schedule ([Decode.run_spmd]).

    The executable counterpart of the static race tier
    ([Cwsp_verify.Race_check]): a static race-freedom certificate is
    corroborated when monitored runs stay race-free across scheduling
    quanta, and a mutant that trips the static tier must also race (or
    hang) here. Atomics form release/acquire chains per word; a plain
    store of 0 to a word some atomic targeted is treated as the TSO
    release idiom; the per-thread checkpoint area is exempt. *)

open Cwsp_ir

type race = {
  r_addr : int;  (** shared word both threads touched *)
  r_tid : int;  (** thread whose access was flagged *)
  r_prev : int;  (** thread that made the unordered earlier access *)
}

type outcome = {
  races : race list;  (** deduplicated by address, sorted *)
  hung : bool;  (** fuel ran out: some thread never finished *)
  quantum : int;
}

(** Monitor one full run of [worker] across [threads] threads under the
    given round-robin [quantum] (default 32). [Fuel_exhausted] is
    reported as [hung], not raised: a mutant that drops an unlock leaves
    its siblings spinning, and a spinning thread steps on until it uses
    up the fuel; that is a verdict, not an error. [screen] sees every
    data access's address before it runs: whatever it raises propagates. *)
val observe :
  ?fuel:int ->
  ?quantum:int ->
  ?screen:(int -> unit) ->
  Prog.t ->
  threads:int ->
  worker:string ->
  outcome

(** [observe] under several quanta (default [[32; 7; 13]]): distinct
    quanta give distinct deterministic interleavings, probing more of
    the schedule space than one run. *)
val sweep :
  ?fuel:int ->
  ?quanta:int list ->
  Prog.t ->
  threads:int ->
  worker:string ->
  outcome list

(** No run in the sweep raced or hung. *)
val all_clean : outcome list -> bool
