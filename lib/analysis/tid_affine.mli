(** Tid-affine symbolic value analysis: every register approximated as
    [base + k*tid + [lo, hi]], built for the cross-thread disjointness
    question the SPMD race verifier asks. [min_int]/[max_int] act as
    -inf/+inf interval sentinels; arithmetic that could overflow
    collapses to [Top]. *)

open Cwsp_ir

val pinf : int

(** Exact 63-bit addition, [None] on overflow. *)
val checked_add : int -> int -> int option

(** Interval-bound addition: the infinity sentinels absorb, finite
    overflow is [None]. *)
val bound_add : int -> int -> int option

type base = Bnum | Bglob of string | Bparam of int

type t = Bot | Top | V of { base : base; k : int; lo : int; hi : int }

val const : int -> t

(** Abstract one instruction over a mutable register state. *)
val step : t array -> Types.instr -> unit

(** Per-block entry states and the reachability mask, from
    [Dataflow.register_states]. [tid_param] marks the parameter holding
    the thread id; the remaining parameters get opaque [Bparam] bases. *)
val block_entry_states :
  ?tid_param:int -> Prog.func -> t array array * bool array

(** A resolved memory place: global or unresolved-parameter base with a
    tid coefficient and a residual offset interval. *)
type place =
  | Pglob of { g : string; k : int; lo : int; hi : int }
  | Pparam of { p : int; k : int; lo : int; hi : int }
  | Pany

val place_of : t -> disp:int -> place

(** Does the place's address depend on the thread id (or is it wholly
    unknown)? *)
val tid_dependent : place -> bool

(** A provably unique concrete word — the only shape usable as a lock
    identity. *)
val exact_place : place -> bool

val place_to_string : place -> string

type verdict = Disjoint | Overlap | Unknown

(** Can these two places, evaluated in two different threads t1 <> t2
    (both >= 0), touch a common 8-byte word? [Disjoint] is a proof over
    all thread pairs; [Overlap] is a proven collision for some pair;
    reasoning is object-bounded as in [Alias]. *)
val cross_thread : place -> place -> verdict
