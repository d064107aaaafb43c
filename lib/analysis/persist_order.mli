(** Persistency-order dataflow analysis for explicit (clwb/sfence-style)
    persistency: per alias class, tracks each store site through
    dirty -> flushed -> durable, on the shared [Dataflow] solver. The
    verifier tier [Persist_check] reports obligations that reach a
    commit point; the insertion pass [Persist_insert] discharges them
    with minimal flush/pfence placements. *)

open Cwsp_ir

module Site_map : Map.S with type key = int * int

(** Durability of one store site; absence from the map means
    durable-or-clean. *)
type dur = Dirty | Flushed

type state = dur Site_map.t

(** Pointwise worst-state merge (Dirty > Flushed > absent). *)
val join : state -> state -> state

val equal_state : state -> state -> bool

(** Is a call to this callee a commit point? (Everything but the
    interpreter intrinsics: a real callee's entry boundary dynamically
    closes the caller's open region.) *)
val commit_call : string -> bool

(** Boundaries and commit calls; returns are commit points of their
    block's terminator, not an instruction. *)
val is_commit_instr : Types.instr -> bool

type t = {
  fn : Prog.func;
  ctx : ctx;
  inb : state array;   (** durability state at each block entry *)
  outb : state array;  (** durability state at each block exit *)
  reachable : bool array;
  headers : bool array;
  doms : Dominators.t;
}

and ctx

val analyze : Prog.func -> t

(** Flow-sensitive symbolic address of a store/flush/atomic site. *)
val sym_at : t -> int * int -> Alias.sym

(** Walk one block, presenting the abstract state immediately before
    each instruction and, for flushes, the sites the flush upgrades
    (empty = the flush is redundant on every path). *)
val iter_block :
  t -> int ->
  f:(ii:int -> Types.instr -> before:state -> covered:(int * int) list ->
     unit) ->
  unit

(** Does predecessor [pred] of loop header [header] close the loop
    (header dominates pred)? Separates loop-carried obligations from
    hoistable loop-entry obligations. *)
val is_back_edge : t -> header:int -> pred:int -> bool

val string_of_sym : Alias.sym -> string
