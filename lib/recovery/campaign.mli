(** Deterministic fault-injection campaign: a (workload x fault-class x
    seed) matrix of [Harness.sweep] points. Each cell's RNG stream
    is derived from the master seed and the cell's fixed matrix position
    ([Rng.stream]), so results are bit-identical regardless of how the
    cells are fanned out over a pool. A hardened campaign must report
    zero ESCAPED faults (the protocol claimed success but the final
    state diverged); the blind variant exists to prove the oracle sees
    what the checksums catch. *)

type target = {
  t_name : string;
  t_compiled : Cwsp_compiler.Pipeline.compiled;
  t_golden : Harness.golden;
}

(** Build a campaign target (runs the failure-free golden execution). *)
val target : name:string -> Cwsp_compiler.Pipeline.compiled -> target

type cell_spec = {
  sp_target : target;
  sp_cls : Fault.cls;
  sp_rep : int;  (** 0-based repetition index within (workload, class) *)
  sp_index : int;  (** fixed rank in the matrix; seeds the cell's RNG *)
}

type cell_outcome =
  | Recovered
  | Degraded
  | Refused
  | Escaped  (** claimed success, diverged final state — must never happen hardened *)
  | Masked  (** the fault found no target (or the harness skipped the cell) *)

val outcome_name : cell_outcome -> string

type cell = {
  c_workload : string;
  c_cls : Fault.cls;
  c_rep : int;
  c_seed : int;
  c_crash_at : int;
  c_outcome : cell_outcome;
  c_injected : bool;
  c_detected : bool;
  c_detail : string;
  c_sweep_points : int;
  c_sweep_slice_points : int;
  c_sweep_failures : int;
  c_flight : string option;
      (** flight-recorder dump ([Cwsp_flight.Recorder] text artifact)
          when the campaign ran with [flight:true]: the harness's
          cross-crash event ring plus a final campaign [Cell] record
          (index, outcome, detected, rep) stamped in its own epoch *)
}

type class_stats = {
  st_cells : int;
  st_injected : int;
  st_detected : int;
  st_recovered : int;
  st_degraded : int;
  st_refused : int;
  st_escaped : int;
  st_masked : int;
}

type report = {
  r_hardened : bool;
  r_master_seed : int;
  r_window : int;
  r_seeds : int;
  r_workloads : string list;
  r_classes : Fault.cls list;
  r_cells : cell list;  (** matrix order, independent of pool width *)
}

(** Run one cell as its own one-point sweep ([Harness.validate_fault]):
    the reference that every cell of [run] equals (exposed for tests).
    Opens the cell's span and bumps its counter as [run] does. *)
val run_cell :
  ?flight:bool ->
  hardened:bool ->
  window:int ->
  master_seed:int ->
  cell_spec ->
  cell

(** Run the matrix. Cells are in target-major matrix order, and target
    [i]'s cells (its position in [targets], so a target listed twice is
    two groups) all crash on one tracked run: one [Harness.sweep] of
    points [{cp_at; cp_seed; cp_hardened = hardened; cp_fault = Some
    class}], each drawn from the cell's own stream. Every cell equals
    [run_cell] on its spec.

    [map] fans the cells out (default sequential); it must be
    order-preserving, e.g. [Executor.map_pool ~jobs], and is called
    once with every cell. It gets each target's leading cell first, then
    the rest in matrix order, and [run] puts the results back in matrix
    order. The first of a target's cells to run computes the sweep and
    builds all of them under that target's lock, so a pool runs
    different targets in parallel and a target's other cells wait for
    its sweep.
    Tracing: every cell opens its [cell:<workload>/<class>] span
    (category [campaign]) and bumps [campaign.<class>.<outcome>]; the
    span of a target's first cell to run also holds that target's
    [sweep:<workload>] span, whose [points] arg is the cell count.

    [flight:true] runs every cell with the in-NVM flight recorder on and
    carries each cell's dump in [c_flight]; recording never changes an
    outcome (the harness excludes the ring from its golden compare). *)
val run :
  ?map:((cell_spec -> cell) -> cell_spec array -> cell array) ->
  ?window:int ->
  ?hardened:bool ->
  ?master_seed:int ->
  ?flight:bool ->
  seeds:int ->
  classes:Fault.cls list ->
  target list ->
  report

val class_stats : report -> Fault.cls -> class_stats
val summarize : report -> (Fault.cls * class_stats) list

(** Cells whose corruption escaped undetected to a divergent final state. *)
val escaped : report -> cell list

(** Total (mid-recovery crash sites, of which on recovery-slice
    instructions) exercised by the crash-during-recovery sweeps. *)
val sweep_coverage : report -> int * int

(** Deterministic per-cell flight-dump file name (matrix coordinates
    only — identical at any pool width). *)
val flight_file_name : cell -> string

(** Write every cell's flight dump under [dir] (created if missing)
    using [flight_file_name]; returns the number written. *)
val save_flights : report -> string -> int

(** Human-readable summary table. *)
val render : report -> string

(** JSON fault-coverage report (the CI artifact). *)
val to_json : report -> string
