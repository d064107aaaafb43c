(** The timing engine: replays commit-event traces on one core or N
    under a persistence scheme, advancing a nanosecond timeline per core
    and charging stalls where the modeled hardware produces backpressure
    (the cWSP hardware of Fig. 9: PB -> persist path -> per-MC WPQs with
    asynchronous undo logging; RBT admission for MC speculation; WB
    stale-read delaying; WPQ-hit load delaying). Each core owns its L1D,
    write buffer, PB, redo buffer and RBT; the L2+ levels and the WPQs
    are shared. A replay is a cache pass ([Hierarchy.probe] per access)
    feeding a timing pass that reads the recorded probe outcomes. *)

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

(** Replay per-thread traces (e.g. from [Decode.spmd_traces_of_program])
    on an N-core machine: one core per trace over shared L2+ levels, WPQs
    and persist tables, stepped in global time order (smallest clock
    first, ties to the lowest core index). Which core accesses the
    shared levels next depends on the clocks, so each event's caches are
    simulated just before its timing. Raises [Invalid_argument] on an
    empty array. *)
val run_traces : Config.t -> scheme -> Cwsp_ir.Trace.t array -> result

(** Replay one trace on one core under each [(platform, scheme)] point,
    results in input order. On one core the cache state after each
    access depends only on the accesses, never on timing, so points
    whose platforms have equal [levels] see the same probe outcomes:
    the caches are simulated once, a chunk of events at a time, and
    every point's timing pass replays the chunk from the recorded
    outcomes. Each point keeps its own persist path, buffers, clocks and
    stats; [nvm_reads] and the miss rates come from the one cache
    simulation. Each point's stats equal, field for field, those of
    replaying it alone.
    Raises [Invalid_argument] when the points' [levels] differ. *)
val run_points : (Config.t * scheme) array -> Cwsp_ir.Trace.t -> Stats.t array

(** The one-point case of [run_points]. *)
val run_trace : Config.t -> scheme -> Cwsp_ir.Trace.t -> Stats.t
