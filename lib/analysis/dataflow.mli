(** The repository's two block-level fixpoint engines.

    - The worklist solver ([Make]) iterates a join-semilattice with a
      per-block transfer to a fixpoint, forward or backward. Its clients
      are [Liveness], [Reaching_defs], [Persist_order], [Race]'s lockset
      and [Cwsp_verify.Sem_check].
    - The register-state sweep ([register_states], with [walk_block]
      for reading a block's states back) runs a per-register abstract
      domain forward with delayed widening. Its clients are [Alias] and
      [Tid_affine].

    [Dominators] keeps its own algorithm (Cooper–Harvey–Kennedy).

    The worklist solver is deliberately *unparameterized over
    convergence proofs*: domains of unbounded height (e.g. symbolic
    expressions) must make their [join] collapse disagreement to a
    finite set of values (top or join-point symbols). A round cap guards
    against domains that fail to do so; exceeding it raises rather than
    silently delivering a non-fixpoint. *)

open Cwsp_ir

module type DOMAIN = sig
  type t

  val bottom : t
  (** Identity of [join]; the initial state of every block. *)

  val equal : t -> t -> bool

  val join : t -> t -> t
  (** Merge of two incoming path states. Must be commutative and
      idempotent up to [equal], with [join bottom x] = [x]. *)
end

module type PROBLEM = sig
  module D : DOMAIN

  type ctx
  (** Per-function precomputed context threaded to [transfer] (e.g. the
      instruction arrays, alias facts); keeps transfer closures
      allocation-free inside the fixpoint loop. *)

  val direction : [ `Forward | `Backward ]

  val boundary : ctx -> Prog.func -> D.t
  (** State flowing into the entry block (forward) or out of every
      exit block (backward). *)

  val transfer : ctx -> Prog.func -> int -> D.t -> D.t
  (** [transfer ctx fn bi s] pushes the state through block [bi]:
      in-state to out-state (forward) or out-state to in-state
      (backward). *)
end

module Make (P : PROBLEM) : sig
  type result = {
    inb : P.D.t array;  (** per block: state at block entry *)
    outb : P.D.t array; (** per block: state at block exit *)
  }

  val solve : P.ctx -> Prog.func -> result
  (** Worklist fixpoint over the function's CFG. Blocks are seeded in
      reverse postorder (forward) or postorder (backward) so reducible
      graphs converge in a small number of sweeps; unreachable blocks
      keep [D.bottom]. Raises [Failure] if the domain fails to converge
      within the round cap. *)
end

(** A per-register abstract domain. [join ~widen old next] merges an
    incoming state into a block's entry; with [widen] it must jump
    growing bounds far enough that loops terminate. [equal] must mean
    interchangeable: where a join returns a value equal to the old one,
    the entry keeps the old one. [step] abstracts one instruction over a
    register state in place. *)
type 'a registers = {
  bottom : 'a;
  equal : 'a -> 'a -> bool;
  join : widen:bool -> 'a -> 'a -> 'a;
  step : 'a array -> Types.instr -> unit;
}

val register_states :
  'a registers -> entry:'a array -> Prog.func -> 'a array array * bool array
(** Per-block entry register states and the reachability mask. Sweeps
    the reachable blocks in reverse postorder until nothing changes,
    joining each block's exit state into its successors' entries; an
    entry joins plainly for its first three changes and widens after
    that, so diamond joins stay precise and loops terminate. [entry] is
    block 0's state; every other block starts at [bottom]. *)

val walk_block :
  ('a array -> Types.instr -> unit) ->
  'a array ->
  Prog.block ->
  (int -> Types.instr -> 'a array -> unit) ->
  unit
(** [walk_block step entry blk f] calls [f ii ins state] for each
    instruction of [blk] in order, [state] being the register state
    just before it (a copy of [entry] stepped through the earlier
    instructions). [f] must not keep or mutate [state]. *)
