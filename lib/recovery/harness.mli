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
    steps on from one point to the next. Every run steps the decoded
    core ([Cwsp_ir.Decode]): the run to a crash point under decode-time
    hooks that keep the hardware's state, the unhooked runs — each
    resumed run to the end and the golden run — on the plain untraced
    core.

    A run of N threads (Section VIII, multi-core recovery) is the
    same tracked run with N lanes — a decoded state and its region ring
    each —
    over one NVM image, one set of MC logs, one global region counter
    and one recorder. At the cut each lane draws its own recovery point
    and suffix; the blind plan reverts every lane's younger regions in
    descending global region id, and each lane resumes independently.
    Two rules hold only because a second core exists: an atomic ends
    its lane's region at once (another core may already have seen it),
    and the final comparison skips the checkpoint area (another
    interleaving may leave another checkpoint history). *)

open Cwsp_ir

(** What a run starts: [main], or [worker](tid) on each of [threads]
    threads sharing one NVM image ([Decode.create_spmd]). *)
type launch = Main | Worker of { worker : string; threads : int }

(** A failure-free reference run: final NVM image, device outputs (each
    thread's in thread order) and step count (all threads together).
    Compute once per workload and share across cells. *)
type golden = { g_mem : Memory.t; g_outputs : int list; g_steps : int }

(** The reference run of [compiled] started as [launch], on the
    untraced decoded core; threads step round-robin at
    [Decode.default_quantum]. *)
val golden_of : launch -> Cwsp_compiler.Pipeline.compiled -> golden

(** The reference a finished failure-free decoded run of the binary
    provides (for callers that have already run it, e.g. to trace it
    with [Decode.trace_of_program]). *)
val golden_of_run : Decode.st -> golden

type fault_outcome =
  | Recovered  (** recovered at the nominal boundary *)
  | Degraded  (** recovered at a deeper boundary whose logs verify *)
  | Refused  (** structured refusal: no trustworthy boundary remained *)

(** What one crash experiment did and found. The clean-crash and
    explicit experiments fill it too: no fault, outcome [Recovered]. *)
type fault_report = {
  fr_crash_step : int;
  fr_nominal_region : int;
      (** dynamic index of the nominal (fault-free) recovery point, on N
          lanes the oldest lane's; in the explicit model, the static id
          of the boundary it resumed at (0 before the first one) *)
  fr_rung_region : int;
      (** region recovery actually used (on N lanes the oldest); -1 if
          refused *)
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
          position, newest first; on N lanes, summed over the lanes); -1
          if refused *)
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

(** Crash [compiled], started as [launch], at every point on one tracked
    run of [mode]'s persistency model, scored against [golden] (the
    reference run of the same launch): the run steps to each
    point in ascending [cp_at] order, and each point's cut copies the
    state there once (image, MC logs, slot checksums); injection,
    recovery and the resumed run consume that copy (a recovery-crash
    sweep recovers on copies of it), so every result equals the
    one-point sweep's. Results come back in input order.

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

    [launch] gives the lanes. Point [cp_at] counts the instructions of
    all lanes together, which step round-robin at
    [Decode.default_quantum]; the schedule carries over from one point to
    the next. On more than one lane only the blind plan on a faultless
    path runs: a hardened or faulted point raises [Invalid_argument], and
    so does the [Explicit] model.

    [flight:true] formats a flight-recorder ring once per sweep, inside
    the image the crash preserves (the tracked lanes' NVM for cWSP,
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
    perf baselines.

    When tracing ([Obs.on]), the sweep is one [sweep] span (category
    [recovery]) whose [points] arg is the number of points. *)
val sweep :
  ?window:int ->
  ?flight:bool ->
  mode:Cwsp_compiler.Pipeline.persist_mode ->
  launch:launch ->
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

(** {2 Differential testing}

    Every resumed run — each crash point's recovery and every
    mid-recovery sweep world, the explicit model's blind resume, and
    [validate_chain]'s final run — starts from entries on one image and
    runs on the untraced decoded core. A probe sees each such run, so a
    test can hold it against a reference. *)

(** A lane to re-execute to the end: thread [e_tid] from call stack
    [e_frames] (head the current frame), having produced [e_outputs]
    since its last resume point, with [e_released] the device output
    released before the crash. *)
type entry = {
  e_tid : int;
  e_frames : Decode.frame list;
  e_outputs : int list;
  e_released : int list;
}

(** One resumed run as the probe sees it. *)
type resumed = {
  rs_start : Memory.t;  (** the image the lanes resumed on, before the run *)
  rs_lanes : entry array;  (** the lanes as they resumed (copies) *)
  rs_fuel : int;  (** the run's step budget *)
  rs_sts : Decode.st array;  (** the decoded lanes after the run *)
  rs_result : (unit, string) result;  (** the run's [stepping] verdict *)
}

(** [with_resumed_probe f k] runs [k ()] showing [f] every resumed run
    the calling domain makes, after the run and before its comparison.
    Only tests set it; without a probe nothing is copied. *)
val with_resumed_probe : (resumed -> unit) -> (unit -> 'a) -> 'a

(** How a resumed run's failure reads: [Error] for a trap, a wild memory
    access ([Memory]'s own [Invalid_argument]) or running out of fuel;
    any other exception escapes. *)
val stepping : (unit -> 'a) -> ('a, string) result
