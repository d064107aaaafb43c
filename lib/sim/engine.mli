(** The timing engine: replays commit-event traces on one core or N
    under a persistence scheme, advancing a nanosecond timeline per core
    and charging stalls where the modeled hardware produces backpressure
    (the cWSP hardware of Fig. 9: PB -> persist path -> per-MC WPQs with
    asynchronous undo logging; RBT admission for MC speculation; WB
    stale-read delaying; WPQ-hit load delaying). Each core owns its L1D,
    write buffer, PB, redo buffer and RBT; the L2+ levels and the WPQs
    are shared. *)

type cwsp_flags = {
  persist_path : bool;   (** Fig. 15 stage 2: persist committed stores *)
  mc_speculation : bool; (** stage 3: RBT admission + MC undo logging *)
  boundary_drain : bool; (** prior-work behaviour: region-end drains *)
  wb_delay : bool;       (** stage 4: stale-read prevention at the WB *)
  wpq_delay : bool;      (** stage 5: delay loads hitting the WPQ *)
}

val cwsp_full : cwsp_flags
val cwsp_flags_none : cwsp_flags

type scheme =
  | Baseline
  | Cwsp of cwsp_flags
  | Ido
  | Capri
  | Replaycache
  | Explicit_flush
      (** compiler-inserted clwb/sfence persistency: data stores stay in
          the cache until flushed; register checkpoints keep the
          hardware persist path *)

val scheme_name : scheme -> string

(** 11 bytes per RBT entry (Section IX-N): 176 bytes at the default 16. *)
val storage_bytes : rbt_entries:int -> int

(** {2 Running} *)

type result = {
  per_core : Stats.t array;
  elapsed_ns : float;  (** completion of the slowest core *)
}

(** Replay per-thread traces (e.g. from [Oracle.spmd_traces_of_program])
    on an N-core machine: one core per trace over shared L2+ levels, WPQs
    and persist tables, stepped in global time order (smallest clock
    first, ties to the lowest core index). Raises [Invalid_argument] on
    an empty array. *)
val run_traces : Config.t -> scheme -> Cwsp_ir.Trace.t array -> result

(** The one-core case of [run_traces]. *)
val run_trace : Config.t -> scheme -> Cwsp_ir.Trace.t -> Stats.t
