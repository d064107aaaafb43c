(** Persistence schemes: each pairs a compile configuration with a timing
    model and an optional platform change, reproducing the systems the
    paper evaluates against (Sections II, IX-A, IX-D). *)

open Cwsp_compiler
open Cwsp_sim

type t = {
  s_name : string;
  s_compile : Pipeline.config;
  s_engine : Engine.scheme;
  s_reconfig : Config.t -> Config.t;
}

val baseline : t

(** The full system: regions + pruned checkpoints + 8B persist path +
    RBT speculation + undo logging + WB/WPQ delaying. *)
val cwsp : t

(** Fig. 15 stage 5: every checkpoint kept. *)
val cwsp_no_prune : t

(** Conservative region-end drains instead of MC speculation (the
    prior-work behaviour of Section II-B). *)
val cwsp_no_speculation : t

(** iDO: persist barriers at every region boundary, unpruned binary. *)
val ido : t

(** Capri: 64B battery-backed redo buffers, hardware redo+undo logging. *)
val capri : t

(** ReplayCache adapted to the server platform: software write-through
    with region-end flushes. *)
val replaycache : t

(** BBB/eADR/LightPC: no persist cost, but the DRAM cache is disabled. *)
val psp_ideal : t

(** Compiler-directed explicit persistency: the flush/pfence-inserted
    binary ([Pipeline.cwsp_explicit], certified by the [Persist_check]
    verifier tier) on hardware without the cWSP persist path. *)
val explicit_flush : t

(** The six cumulative stages of the Fig. 15 ablation. *)
val fig15_stages : (string * t) list
