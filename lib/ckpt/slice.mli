(** Recovery slices (Sections IV-C and VII).

    A slice is attached to each region boundary; when power failure
    interrupts the region starting there, the recovery runtime evaluates
    it to restore the region's live-in registers. Expressions reconstruct
    values from immediates, global addresses and the NVM checkpoint slots
    that survive pruning — the three sources of Fig. 4(b). *)

open Cwsp_ir

type expr =
  | EImm of int
  | EAddr of string     (** address of a global, resolved at link time *)
  | ESlot of Types.reg  (** read the NVM checkpoint slot of a register *)
  | EBin of Types.binop * expr * expr
  | ECmp of Types.cmpop * expr * expr

(** One entry per live-in register of the region. *)
type t = (Types.reg * expr) list

val expr_size : expr -> int

(** Evaluate at recovery time; [slot r] reads register [r]'s checkpoint
    slot from NVM, [addr_of g] resolves a global's address. *)
val eval : slot:(Types.reg -> int) -> addr_of:(string -> int) -> expr -> int

val expr_to_string : expr -> string
val to_string : t -> string

(** All checkpoint slots an expression reads. *)
val slot_refs : expr -> Types.reg list

(** All globals an expression takes the address of. *)
val expr_globals : expr -> string list
