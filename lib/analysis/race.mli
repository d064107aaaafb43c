(** Static SPMD data-race analysis: tid-affine disjointness + an
    Eraser-style lockset analysis (on the shared [Dataflow] solver) +
    bottom-up [Interproc] summaries, classifying every cross-thread
    conflicting access pair of an SPMD worker. Discharges the
    SC-for-DRF premise [Cwsp_interp.Multi] states (Section VIII). *)

open Cwsp_ir
module Ta = Tid_affine
module Ip = Interproc

(** The lock-operation idioms recognized, as named patterns:
    [Cas_acquire] (the guarded CAS spin of [Libc.spin_lock] and the
    inline acquire in [Kernels.transactions]), [Rmw_release]
    ([Libc.spin_unlock]), and [Tso_release] — the plain-store-of-0 x86
    unlock idiom [Kernels.transactions] uses, recognized only on words
    some guarded acquire targets. A bare fetch-add with its result
    discarded is {e not} an acquire (it never blocks, so it excludes
    nothing) and stays an ordinary atomic data access. *)
type pattern = Cas_acquire | Rmw_release | Tso_release

(** Shape-level classification of an atomic instruction. A
    [Cas_acquire] shape only *acts* as an acquire when [cas_guarded]
    additionally holds at its site. *)
val atomic_pattern : Types.instr -> pattern option

(** Is the CAS at [(bi, ii)] with result register [d] guarded — result
    compared against the expected value 0 and the failure edge looping
    back to retry the CAS? Only guarded CAS shapes acquire. *)
val cas_guarded : Prog.func -> bi:int -> ii:int -> int -> bool

(** Per-function result, also usable directly in tests. *)
type fresult = {
  r_accesses : Ip.access list;
  r_may_exit : Ta.place list;
  r_rel_exit : Ta.place list;
  r_lock_objs : (Ta.place, unit) Hashtbl.t;
}

val analyze :
  lookup:(string -> Ip.summary option) -> ?tid_param:int -> Prog.func -> fresult

(** The [Interproc] summarizer this analysis plugs in. *)
val summarize : lookup:(string -> Ip.summary option) -> Prog.func -> Ip.summary

(** The SPMD entry convention: a unary function named ["worker"]
    (thread id parameter), as built by [W_parallel.scaffold] and run by
    [Multi.create]. *)
val spmd_entry : Prog.t -> string option

type rule =
  | Rdata_race             (* conflicting pair, locks exist but prove nothing *)
  | Runlocked_shared_write (* conflicting pair, no locks at all *)
  | Rtid_overlap_unprovable(* tid-indexed footprints not provably disjoint *)
  | Rredundant_atomic      (* lint: atomic on a thread-private word *)

type finding = { f_rule : rule; f_bi : int; f_ii : int; f_msg : string }

(** All findings for [worker], deterministic order. *)
val check : Prog.t -> worker:string -> finding list
