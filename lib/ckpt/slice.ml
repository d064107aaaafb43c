(** Recovery slices (Section IV-C / VII).

    A slice is attached to each region boundary; when power failure
    interrupts the region that starts at that boundary, the recovery
    runtime evaluates the slice to restore the region's live-in registers
    before re-executing it. Slice expressions reconstruct values from
    immediates, global addresses and the NVM checkpoint slots that survive
    pruning — exactly the three sources the paper's recovery slice in
    Fig. 4(b) uses (constants 100 and 1, plus a shift over region Rg0's
    checkpoint of r3). *)

open Cwsp_ir

type expr =
  | EImm of int
  | EAddr of string            (* address of a global, resolved at link *)
  | ESlot of Types.reg         (* read the NVM checkpoint slot of a register *)
  | EBin of Types.binop * expr * expr
  | ECmp of Types.cmpop * expr * expr

(** One entry per live-in register of the region. *)
type t = (Types.reg * expr) list

let rec expr_size = function
  | EImm _ | EAddr _ | ESlot _ -> 1
  | EBin (_, a, b) | ECmp (_, a, b) -> 1 + expr_size a + expr_size b

(** [eval ~slot ~addr_of e] evaluates a slice expression at recovery time;
    [slot r] reads the checkpoint slot of register [r] from NVM and
    [addr_of g] resolves a global's address. *)
let rec eval ~slot ~addr_of = function
  | EImm v -> v
  | EAddr g -> addr_of g
  | ESlot r -> slot r
  | EBin (op, a, b) -> Eval.binop op (eval ~slot ~addr_of a) (eval ~slot ~addr_of b)
  | ECmp (op, a, b) -> Eval.cmpop op (eval ~slot ~addr_of a) (eval ~slot ~addr_of b)

let rec expr_to_string = function
  | EImm v -> string_of_int v
  | EAddr g -> "@" ^ g
  | ESlot r -> Printf.sprintf "slot[r%d]" r
  | EBin (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (expr_to_string a) (Pp.binop_str op)
      (expr_to_string b)
  | ECmp (op, a, b) ->
    Printf.sprintf "(%s cmp.%s %s)" (expr_to_string a) (Pp.cmpop_str op)
      (expr_to_string b)

let to_string (t : t) =
  t
  |> List.map (fun (r, e) -> Printf.sprintf "r%d <- %s" r (expr_to_string e))
  |> String.concat "; "

(** All checkpoint slots an expression reads. *)
let rec slot_refs = function
  | EImm _ | EAddr _ -> []
  | ESlot r -> [ r ]
  | EBin (_, a, b) | ECmp (_, a, b) -> slot_refs a @ slot_refs b

(** All globals an expression takes the address of. *)
let rec expr_globals = function
  | EImm _ | ESlot _ -> []
  | EAddr g -> [ g ]
  | EBin (_, a, b) | ECmp (_, a, b) -> expr_globals a @ expr_globals b
