(** Power-failure injection and the cWSP recovery protocol (Section VII)
    — the validation the paper leaves as future work ("No Power Failure
    Recovery Test", Section VIII).

    The harness executes a compiled program while maintaining the state
    the cWSP hardware keeps: per-region undo logs at the MCs
    ([Mc_logs]), the register checkpoints (ordinary stores to the NVM
    checkpoint area made by the instrumented program itself), the
    region-buffered I/O ([Io_buffer]) and the compiler's recovery-slice
    table. Every crash experiment runs one skeleton: run to the crash
    point; cut power (pick the oldest unpersisted region within the RBT
    window, never at or before a committed sync point, and un-persist a
    random per-MC FIFO suffix of its stores); optionally inject a
    persistence-path fault; execute a recovery plan (blind: revert the
    younger regions with the undo logs; hardened: audit first); resume
    at the chosen region, evaluating its recovery slice into a poisoned
    register file; and compare the final NVM image and device output
    with a failure-free run. *)

open Cwsp_interp

(** A failure-free reference run: final NVM image, device outputs and
    step count. Compute once per workload and share across cells. *)
type golden = { g_mem : Memory.t; g_outputs : int list; g_steps : int }

val golden_of : Cwsp_compiler.Pipeline.compiled -> golden

type fault_outcome =
  | Recovered  (** recovered at the nominal boundary *)
  | Degraded  (** recovered at a deeper boundary whose logs verify *)
  | Refused  (** structured refusal: no trustworthy boundary remained *)

(** What one crash experiment did and found. The clean-crash and
    explicit experiments fill it too: no fault, outcome [Recovered]. *)
type fault_report = {
  fr_crash_step : int;
  fr_nominal_region : int;
      (** dynamic index of the nominal (fault-free) recovery point; for
          [validate_explicit], the static id of the boundary it resumed
          at (0 before the first one) *)
  fr_rung_region : int;  (** region recovery actually used; -1 if refused *)
  fr_outcome : fault_outcome;
  fr_injected : string option;
      (** what the adversary did; [None] if the fault found no target *)
  fr_detections : string list;  (** what the hardening audits saw *)
  fr_state_ok : bool;
      (** final NVM + exactly-once I/O match the failure-free run
          (vacuously true for [Refused]: no image was committed) *)
  fr_sweep_points : int;  (** mid-recovery crash sites exercised *)
  fr_sweep_slice_points : int;
      (** ... of which were recovery-slice instructions (the acceptance
          sweep covers every slice index) *)
  fr_sweep_failures : int;  (** sweep runs ending in a wrong final state *)
  fr_rollback : int;
      (** tracked regions rolled back past to reach the rung (its
          position, newest first); -1 if refused *)
  fr_restored : int;  (** live-in registers the rung's recovery slice restored *)
  fr_flight : string option;
      (** flight-recorder dump (the [Cwsp_flight.Recorder] text
          artifact) when recording was enabled: pre-crash boundary and
          telemetry records in epoch 0, the crash/injection/ladder
          events in epoch 1 — ready for [cwsp_postmortem] *)
}

(** Clean crash: run [compiled] with a power failure after [crash_at]
    instructions, recover with the blind plan on the faultless
    persistence path, and require a bit-exact final NVM state plus an
    exactly-once device-output stream. [window] is the RBT size: the
    maximum number of concurrently unpersisted regions. A divergence,
    trap, wild access or hang of the resumed run is an [Error] carrying
    the first difference. *)
val validate :
  ?window:int ->
  seed:int ->
  crash_at:int ->
  Cwsp_compiler.Pipeline.compiled ->
  (fault_report, string) result

(** Chained crashes: [crash_points] are instruction-count deltas between
    consecutive failures (a failure may interrupt the previous
    recovery's re-execution). Each is a cut, the blind plan and a
    resume that is itself tracked; the last resume runs to completion
    and is compared. Returns the number of failures injected. *)
val validate_chain :
  ?window:int ->
  seed:int ->
  crash_points:int list ->
  Cwsp_compiler.Pipeline.compiled ->
  (int, string) result

(** Explicit-persistency crash experiment, the dynamic ground truth for
    the [Persist_check] static tier: run an [Explicit]-mode binary to
    [crash_at] instructions, cut power — losing the caches, the
    flushed-but-unfenced set and any uncommitted atomic, and reverting
    the open region's checkpoint-area stores — then blindly resume at
    the newest boundary via its recovery slice and require a bit-exact
    final NVM state plus an exactly-once device-output stream.
    Deterministic (no RNG): the adversary always takes everything a
    fence had not sealed, so a dropped or misplaced flush/fence escapes
    at some crash point reproducibly.

    [flight:true] formats a flight-recorder ring inside the durable
    image, records each boundary commit (with the flushed-but-unfenced
    set as telemetry) and the crash/resume decision, and hands the dump
    artifact to [on_flight] (also on a failed comparison; [fr_flight]
    carries the same dump). Recording never changes the verdict: the
    ring region is excluded from the golden comparison and nothing
    reads it.

    Only the persistence model is its own: the crash image goes through
    the same slice resume and comparison as [validate], so a wrong final
    state, trap, wild access or hang is an [Error]. *)
val validate_explicit :
  ?flight:bool ->
  ?on_flight:(string -> unit) ->
  crash_at:int ->
  Cwsp_compiler.Pipeline.compiled ->
  (fault_report, string) result

(** {2 Adversarial fault model}

    Crashes where the persistence path itself is faulty ([Fault]): the
    hardened protocol audits the undo logs (checksums, LSNs, durable
    count headers) and the checkpoint area before committing to a
    rollback boundary, walks a degradation ladder to deeper boundaries
    whose logs verify, and refuses outright — never committing a wrong
    final NVM image — when none is left. *)

(** Validate one adversarial crash: run to [crash_at], cut power, inject
    [fault] into the surviving durable state ([Fault.Recovery_crash] is
    realized as a second power failure swept across every instruction of
    the staged recovery plan), recover — hardened, or blind when
    [hardened:false] (trust every byte, legacy ordering; the negative
    corpus) — and compare the final state against a failure-free run.

    [flight:true] additionally formats a flight-recorder ring inside
    the tracked machine's NVM: boundary commits and persist telemetry
    are recorded as the program runs (epoch 0); the crash re-attaches
    the surviving ring and a new epoch records the injection, every
    ladder-rung audit, the decision and the resume point; mid-recovery
    sweep crashes open further epochs. The crash can tear the in-flight
    append (dedicated rng stream — the main [seed]-driven draw sequence
    is unchanged), the ring region is excluded from golden comparisons,
    and nothing in recovery reads it, so outcomes are identical with
    recording on or off; [fr_flight] carries the dump artifact. The
    [CWSP_FLIGHT=1] environment forces recording on process-wide (here
    and in [validate_explicit]) — CI uses it to pin recorder-on runs to
    the recorder-off goldens and perf baselines. *)
val validate_fault :
  ?window:int ->
  ?golden:golden ->
  ?flight:bool ->
  hardened:bool ->
  ?fault:Fault.cls ->
  seed:int ->
  crash_at:int ->
  Cwsp_compiler.Pipeline.compiled ->
  (fault_report, string) result

(** {2 Shared crash helpers} (the multi-core harness, [Harness_mp])

    [fifo_suffix rng logs entries f] un-persists a random per-MC FIFO
    suffix of one region's data stores: per MC, in MC order, it draws
    how many stores persisted in program order and passes each later
    one to [f]. Checkpoint-area stores are left to the caller. *)
val fifo_suffix :
  Cwsp_util.Rng.t ->
  Mc_logs.t ->
  Mc_logs.entry list ->
  (Mc_logs.entry -> unit) ->
  unit

(** [resume_slice ~tid linked ~mem ~frames ~depth slice] resumes thread
    [tid] at a region entry with call stack [frames] (copied). With
    [Some slice] the open frame's registers are poisoned and the slice
    rebuilds its live-ins from the thread's checkpoint slots in [mem]. *)
val resume_slice :
  tid:int ->
  Machine.linked ->
  mem:Memory.t ->
  frames:Machine.frame list ->
  depth:int ->
  Cwsp_ckpt.Slice.t option ->
  Machine.t
