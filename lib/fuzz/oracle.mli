(** The WITCHER-style output-equivalence oracle, one program at a time.

    A program is first run uninstrumented (the baseline), with every
    dynamic memory access screened: anything touching the hardware
    checkpoint area or a negative address is a wild program — discarded,
    not a finding (mutation freely manufactures such pointers, and they
    would fault the instrumented run for reasons that indict nobody).

    Surviving programs are compiled under [cwsp] and [cwsp-explicit] and
    pushed through the whole stack: verifier-rule firings become
    coverage cells; a statically accepted program must then (1) produce
    the baseline's outputs and final data memory, (2) recover to a
    bit-exact state from a power failure in every inter-boundary
    interval, (3) survive the adversarial fault classes hardened, and
    (4) — when the race tier certified an SPMD worker — stay race-free
    under the dynamic vector-clock monitor. Any dynamic divergence of a
    statically certified program is a verifier escape: the
    campaign-fatal finding class.

    Static errors from the race tier are verdicts about the source
    program (mutants race on purpose) and count as coverage only; static
    errors from every other tier indict the compiler, whose obligations
    hold for arbitrary valid input. *)

open Cwsp_ir

(** Injectable compiler, so campaigns can fuzz a deliberately broken
    pipeline (the bug-reinjection acceptance tests). *)
type compile_fn =
  Cwsp_compiler.Pipeline.config -> Prog.t -> Cwsp_compiler.Pipeline.compiled

val default_compile : compile_fn

type finding_kind =
  | Compile_crash       (** the pipeline raised on valid input *)
  | Static_reject       (** non-race verifier error on a fresh compile *)
  | Fault_escape        (** hardened protocol committed a wrong image *)
  | Verifier_escape     (** statically certified, dynamically diverged *)

val kind_name : finding_kind -> string

(** One experiment of a dynamic stage, as [evaluate] drew it: a clean
    power cut recovered by the blind plan ([Crash]), a hardened recovery
    from an injected fault ([Fault]), or an explicit-persistency crash
    ([Explicit]), at [p_crash_at] instructions with harness seed
    [p_seed] (unused by [Explicit]). *)
type stage = Crash | Fault of Cwsp_recovery.Fault.cls | Explicit

type probe = { p_stage : stage; p_crash_at : int; p_seed : int }

(** [probe] is the experiment that failed, for findings of the crash,
    fault and explicit stages; [None] for every other finding. It is not
    part of the saved signature. *)
type finding = { fk : finding_kind; detail : string; probe : probe option }

(** Dedupe key: kind plus the leading token of the detail (rule name,
    fault class, oracle stage) — one corpus entry per distinct bug
    signature, not per crash point. *)
val finding_key : finding -> string

type eval = {
  e_cells : string list;        (** distinct, sorted *)
  e_findings : finding list;
  e_discarded : string option;  (** why the input left the pool early *)
}

(** Crash points derived from the trace's actual boundary structure: one
    step index per inter-boundary interval (including the tail after the
    last boundary), evenly thinned to [max_points] when there are more
    intervals. Empty for traces too short to crash inside. *)
val boundary_crash_points :
  Cwsp_util.Rng.t -> trace:Trace.t -> max_points:int -> int list

(** Evaluate one program. [rng] drives crash-point jitter, fault-class
    selection and seeds; stream it per exec index for deterministic
    campaigns. *)
val evaluate : ?compile:compile_fn -> Cwsp_util.Rng.t -> Prog.t -> eval

(** Does [prog] still reproduce finding [f]? The minimizer's predicate:
    deterministic, and false on any exception. A probed finding re-runs
    [evaluate]'s certify and stage on [prog]: its own probe first, then
    a fixed search (seed 1 over the boundary crash points; a quarter,
    half and three quarters of the run x seeds 1-3 for a fault class;
    the explicit boundary points), true when one breaks. So the program
    [evaluate] flagged always reproduces its own finding. When tracing
    ([Obs.on]), the probed stages run under [baseline_run],
    [instrumented_run] and [first_broken] spans (category [fuzz]). *)
val reproduces : ?compile:compile_fn -> finding -> Prog.t -> bool

(** Forensic companion to a finding: [reproduces]'s search with the
    in-NVM flight recorder on, returning the first failing probe's
    [Cwsp_flight.Recorder] dump artifact (feed to [cwsp_postmortem]) —
    recorded under the protocol that stage runs, so a crash-stage dump
    shows the blind plan and a fault-stage dump the hardened ladder.
    [None] for unprobed findings or when no probe fails. Deterministic,
    and never changes a verdict — the recorder ring is invisible to
    every oracle comparison. *)
val flight_dump : ?compile:compile_fn -> finding -> Prog.t -> string option
