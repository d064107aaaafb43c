(** IR-level mutation operators over well-formed programs. Each
    application picks an operator, applies it to a copy of the input,
    and keeps the result only when [Validate.check] still accepts it —
    so the campaign only ever feeds structurally valid programs to the
    compiler, and any rejection downstream is a genuine finding.

    The menu covers the generic AFL-style moves (splice from a donor,
    insert, delete, operator flip, address perturbation, instruction
    move) plus the domain-aware ones: stride widening and lock dropping
    target the SPMD race tier's idioms, atomic downgrade turns a RMW
    into its racy load/op/store expansion, and the flush/pfence
    operators churn the explicit-persistency surface. *)

open Cwsp_ir

type op =
  | Splice           (** graft a donor instruction run, registers remapped *)
  | Insert           (** one fresh random instruction *)
  | Delete
  | Op_flip          (** swap a binop/cmpop, or nudge an immediate *)
  | Addr_perturb     (** move a load/store/flush displacement *)
  | Move             (** reinsert an instruction elsewhere, possibly
                         across a synchronization point *)
  | Stride_widen     (** widen an index mask / stride multiplier (SPMD) *)
  | Lock_drop        (** delete one spin_lock/spin_unlock call (SPMD) *)
  | Atomic_downgrade (** RMW -> load; op; store (SPMD) *)
  | Flush_insert     (** add a flush after a store (explicit persist) *)
  | Flush_drop
  | Pfence_toggle    (** insert or delete a pfence *)

(** One mutation: up to [tries] (default 12) operator draws until one
    applies and validates. [donor] feeds [Splice]. [None] when no draw
    produced a valid program. *)
val mutate :
  ?tries:int -> Cwsp_util.Rng.t -> donor:Prog.t -> Prog.t -> (op * Prog.t) option
