(** The cWSP compiler driver: scalar optimizations, region formation,
    checkpoint insertion, checkpoint pruning, and global boundary-id
    renumbering. Different persistence schemes consume different compile
    configurations (Section IX). *)

open Cwsp_ir
open Cwsp_ckpt

type persist_mode =
  | Implicit
      (** the cWSP hardware persists committed stores transparently *)
  | Explicit
      (** compiler-inserted flush/pfence sequences ([Persist_insert])
          make every store durable before its region commits *)

type config = {
  optimize : bool; (** -O3-style scalar opts before region formation *)
  region_formation : bool;
  checkpoints : bool;
  pruning : bool;
  persist_mode : persist_mode;
}

(** Uninstrumented (but optimized) binary. *)
val baseline : config

(** Boundaries only — the Capri-style compile. *)
val regions_only : config

(** Boundaries + all checkpoints — the iDO-style compile (Fig. 15). *)
val cwsp_no_prune : config

(** The full pipeline. *)
val cwsp : config

(** Same configuration with [persist_mode = Explicit]. *)
val explicit_of : config -> config

(** [explicit_of cwsp]: full pipeline plus flush/pfence insertion. *)
val cwsp_explicit : config

(** Stable name used as a memoization key ([config_name cwsp_explicit] =
    ["cwsp-explicit"]; implicit-mode names are unchanged). *)
val config_name : config -> string

type func_report = {
  fr_name : string;
  static_instrs : int;
  static_regions : int;
  ckpts_inserted : int;
  ckpts_kept : int;
}

type compiled = {
  prog : Prog.t;
  cconfig : config;
  slices : Slice.t array;
    (** recovery slices indexed by {e global} boundary id; empty when the
        configuration has no checkpoints *)
  boundary_owner : string array; (** owning function per global boundary id *)
  reports : func_report list;
}

(** Total region count of the compiled program. *)
val nboundaries : compiled -> int

(** Run the configured pipeline; validates before and after, then applies
    the post-compile hook (if installed) to the result.

    A compile is a front end that does not depend on [persist_mode]
    (validate, optimize, form regions, insert and prune checkpoints,
    renumber) and a back end for the mode ([Persist_insert] when
    [Explicit], the final validation, the instruction recount, the
    hook). Each domain keeps its last front end, keyed by the source,
    compared by physical equality ([Prog.t] is immutable), and by the
    configuration with [persist_mode] erased: a [cwsp_explicit] compile
    right after a [cwsp] compile of the same program runs only the back
    end. The memo holds its front end through an ephemeron on the
    source, so it never keeps a program alive. The result equals a cold
    compile's, its arrays are its own, and the hook and the
    [compiler.*] counters run on every call. *)
val compile : ?config:config -> Prog.t -> compiled

(** Install a function applied to every [compile] result — the injection
    point the [Cwsp_verify] library uses to check each compile's output
    without a circular library dependency. The hook may raise to reject
    the compile. *)
val set_post_compile_hook : (compiled -> unit) -> unit

val report_to_string : compiled -> string
