(** Verifier tier 7: static SPMD data-race freedom.

    The SPMD runs ([Cwsp_ir.Decode.run_spmd]) are sequentially
    consistent *for data-race-free programs* (Section VIII); every
    multi-core result rests on that premise, and this tier is what
    discharges it. The actual analysis — tid-affine disjointness, the
    lockset dataflow with the named lock patterns, and the bottom-up
    interprocedural summaries — lives in [Cwsp_analysis.Race]; this
    module maps its findings onto the verifier's diagnostic surface:

    - [data-race] (error): a cross-thread conflicting pair whose locks
      prove no exclusion (disjoint locksets, broken release discipline,
      or mixed atomic/plain accesses to one word);
    - [unlocked-shared-write] (error): a conflicting pair with no locks
      held at all;
    - [tid-overlap-unprovable] (error): tid-indexed footprints the
      stride/range analysis cannot separate — either a proven collision
      or an unprovable one; both void the DRF certificate;
    - [redundant-atomic] (warning): an atomic RMW on a provably
      thread-private word.

    The tier arms itself only on programs with an SPMD entry (a unary
    ["worker"] function); everything else is vacuously certified. Its
    dynamic counterpart is [Cwsp_fuzz.Race_monitor], which
    cross-checks certificates on executed interleavings. *)

open Cwsp_ir
module Race = Cwsp_analysis.Race

let spmd_entry = Race.spmd_entry

let diag_of_finding ~worker (f : Race.finding) : Diag.t =
  let err rule =
    Diag.error rule ~func:worker ~block:f.f_bi ~instr:f.f_ii "%s" f.f_msg
  in
  match f.f_rule with
  | Race.Rdata_race -> err Diag.Data_race
  | Race.Runlocked_shared_write -> err Diag.Unlocked_shared_write
  | Race.Rtid_overlap_unprovable -> err Diag.Tid_overlap_unprovable
  | Race.Rredundant_atomic ->
    Diag.warning Diag.Redundant_atomic ~func:worker ~block:f.f_bi
      ~instr:f.f_ii "%s" f.f_msg

(** Race-check [prog]'s SPMD worker; [\[\]] when there is none. *)
let check (prog : Prog.t) : Diag.t list =
  match spmd_entry prog with
  | None -> []
  | Some worker ->
    List.map (diag_of_finding ~worker) (Race.check prog ~worker)
