(** Power-failure injection and the cWSP recovery protocol (Section VII)
    — the validation the paper leaves as future work ("No Power Failure
    Recovery Test", Section VIII).

    The harness executes a compiled program while maintaining the state
    the cWSP hardware keeps: per-region undo logs at the MCs
    ([Mc_logs]), the register checkpoints (ordinary stores to the NVM
    checkpoint area made by the instrumented program itself), the
    region-buffered I/O (a region's device output is released once it
    persists) and the compiler's recovery-slice table. Every crash
    experiment runs one skeleton: run to the crash point; cut power
    (pick the oldest unpersisted region within the RBT window, never at
    or before a committed sync point, and un-persist a random per-MC
    FIFO suffix of its stores); optionally inject a persistence-path
    fault; execute a recovery plan (blind: revert the younger regions
    with the undo logs; hardened: audit first); resume at the chosen
    region, evaluating its recovery slice into a poisoned register
    file; and compare the final NVM image and device output with a
    failure-free run. A sweep runs many crash points on one tracked
    run, of the cWSP model or of explicit flush/fence persistency
    ([sweep]): cutting power only reads the tracked state, so the run
    steps on from one point to the next. *)

open Cwsp_ir
open Cwsp_interp

(** A failure-free reference run: final NVM image, device outputs and
    step count. Compute once per workload and share across cells. *)
type golden = { g_mem : Memory.t; g_outputs : int list; g_steps : int }

val golden_of : Cwsp_compiler.Pipeline.compiled -> golden

(** The reference a finished failure-free run of the binary provides
    (for callers that have already run it, e.g. to trace it). *)
val golden_of_run : Machine.t -> golden

type fault_outcome =
  | Recovered  (** recovered at the nominal boundary *)
  | Degraded  (** recovered at a deeper boundary whose logs verify *)
  | Refused  (** structured refusal: no trustworthy boundary remained *)

(** What one crash experiment did and found. The clean-crash and
    explicit experiments fill it too: no fault, outcome [Recovered]. *)
type fault_report = {
  fr_crash_step : int;
  fr_nominal_region : int;
      (** dynamic index of the nominal (fault-free) recovery point; in
          the explicit model, the static id of the boundary it resumed
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

(** {2 Crash sweeps}

    One crash point: power fails once [cp_at] instructions have run;
    [cp_seed] seeds the cut (which region's stores had not persisted)
    and the injection; recovery runs the hardened ladder
    ([cp_hardened]) or the blind plan, against [cp_fault] ([None]: a
    faultless persistence path). *)
type point = {
  cp_at : int;
  cp_seed : int;
  cp_hardened : bool;
  cp_fault : Fault.cls option;
}

(** The clean crash: blind plan, no fault. *)
val clean_point : seed:int -> crash_at:int -> point

(** One point's result: [Error] when the program halted before the
    point; otherwise the report and the crash-free recovery's comparison
    with the failure-free run, whose [Error] carries the first
    difference with the crash step and recovery point. *)
type outcome = (fault_report * (unit, string) result, string) result

(** [Ok] with the report when the point was reached and the crash-free
    recovery compared equal; otherwise the [Error] message. *)
val require_clean : outcome -> (fault_report, string) result

(** Crash [compiled] at every point on one tracked run of [mode]'s
    persistency model, scored against [golden]: the run steps to each
    point in ascending [cp_at] order, and each point's crash, recovery,
    resume and comparison work on copies of the state there, so every
    result equals the one-point sweep's. Results come back in input
    order.

    [mode] is a parameter, not read from [compiled.cconfig], because a
    binary's config label need not name the model it was built for: the
    fuzz campaign's verifier-hidden tests relabel explicit binaries as
    [Implicit].

    - [Implicit]: the cWSP hardware model. Each point cuts power with
      [cp_seed], injects [cp_fault] and recovers with the hardened
      ladder or the blind plan. [window] is the RBT size: the maximum
      number of concurrently unpersisted regions (default 16).
    - [Explicit]: the explicit flush/fence model, the dynamic ground
      truth for the [Persist_check] static tier. The crash loses the
      caches, the flushed-but-unfenced set and any uncommitted atomic,
      and reverts the open region's checkpoint-area stores; recovery
      blindly resumes at the newest boundary via its recovery slice.
      Deterministic ([cp_seed] and [window] are unused): the adversary
      always takes everything a fence had not sealed, so a dropped or
      misplaced flush/fence escapes at some crash point reproducibly.
      The model has no fault classes: a point with [cp_hardened] or a
      [cp_fault] raises [Invalid_argument].

    [flight:true] formats a flight-recorder ring once per sweep, inside
    the image the crash preserves (the tracked machine's NVM for cWSP,
    the durable image for explicit): boundary commits and persist
    telemetry are recorded as the program runs (epoch 0); each crash
    re-attaches the ring surviving in its own crash image, and a new
    epoch records the crash and what recovery decided (cWSP: the
    injection, every ladder-rung audit, the decision and the resume
    point, with mid-recovery sweep crashes opening further epochs;
    explicit: the blind resume). A cWSP crash can tear the in-flight
    append (dedicated rng stream — the main [cp_seed]-driven draw
    sequence is unchanged), the ring region is excluded from golden
    comparisons, and nothing in recovery reads it, so outcomes are
    identical with recording on or off; [fr_flight] carries each
    point's dump artifact, on a failed comparison too. The
    [CWSP_FLIGHT=1] environment forces recording on process-wide, in
    every sweep and so in every [validate*] entry except
    [validate_chain], which never records and returns no report — CI
    uses it to pin recorder-on runs to the recorder-off goldens and
    perf baselines. *)
val sweep :
  ?window:int ->
  ?flight:bool ->
  mode:Cwsp_compiler.Pipeline.persist_mode ->
  golden:golden ->
  Cwsp_compiler.Pipeline.compiled ->
  point list ->
  outcome list

(** {2 One-point experiments}

    Clean crash: the cWSP model's one-point [sweep] of [clean_point] —
    run [compiled] with a power failure after [crash_at] instructions,
    recover with the blind plan on the faultless persistence path, and
    require a bit-exact final NVM state plus an exactly-once
    device-output stream. A divergence, trap, wild access or hang of
    the resumed run is an [Error] carrying the first difference. *)
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

(** One explicit-persistency crash: the explicit model's one-point
    [sweep], a wrong final state, trap, wild access or hang an [Error]. *)
val validate_explicit :
  ?flight:bool ->
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

(** Validate one adversarial crash, the cWSP model's one-point
    [sweep]: run to [crash_at], cut power, inject [fault] into the
    surviving durable state ([Fault.Recovery_crash] is realized as a
    second power failure swept across every instruction of the staged
    recovery plan), recover — hardened, or blind when [hardened:false]
    (trust every byte, legacy ordering; the negative corpus) — and
    compare the final state against [golden], by default [golden_of
    compiled]. [flight] as for [sweep]. *)
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

(** [stepping f] runs [f], which steps a resumed machine, and turns a
    trap, a wild memory access ([Memory]'s own [Invalid_argument]) or
    an exhausted fuel budget into an [Error]: wrong outcomes of
    recovery, not harness failures. *)
val stepping : (unit -> 'a) -> ('a, string) result

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
