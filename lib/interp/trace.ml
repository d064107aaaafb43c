(** Re-export of [Cwsp_ir.Trace]: only cwspbench/figures.ml reads it, until ROADMAP item 11. *)

include Cwsp_ir.Trace
