(** The public one-stop API: compile a workload, trace it once, replay
    the trace under any scheme/platform, compare against the baseline,
    and validate crash recovery.

    Compiled binaries and traces are memoized per (workload, scale,
    compile config); timing statistics per (workload, scale, scheme,
    platform fingerprint) — the platform key hashes the full [Config.t]
    contents, so distinct platforms can never alias. All caches are
    mutex-protected and safe to populate from multiple domains
    ([Executor]). *)

open Cwsp_interp
open Cwsp_compiler
open Cwsp_sim
open Cwsp_workloads

(** (workload, scale, compile-config name): identifies a compiled binary
    and its trace. *)
type binary_key = string * int * string

(** (workload, scale, scheme name, platform fingerprint): identifies one
    simulation point. *)
type stats_key = string * int * string * string

val binary_key : ?scale:int -> Defs.t -> Pipeline.config -> binary_key

val stats_key :
  ?scale:int -> Defs.t -> Cwsp_schemes.Schemes.t -> Config.t -> stats_key

(** Compile a workload under a compile configuration (memoized). *)
val compiled : ?scale:int -> Defs.t -> Pipeline.config -> Pipeline.compiled

(** Functional commit trace (memoized). *)
val trace : ?scale:int -> Defs.t -> Pipeline.config -> Trace.t

(** Timing statistics of a workload under a scheme on a platform. *)
val stats :
  ?scale:int -> Defs.t -> Cwsp_schemes.Schemes.t -> Config.t -> Stats.t

(** Timing statistics of points that replay one trace on one cache
    hierarchy (the schemes share a compile configuration, the
    reconfigured platforms their [levels]), in input order. Each point
    makes the memo lookups [stats] makes; the points not memoized yet
    replay together in one [Engine.run_points], which simulates the
    caches once. Raises [Invalid_argument] when the points do not share
    the trace or the levels. *)
val stats_group :
  ?scale:int ->
  Defs.t ->
  (Cwsp_schemes.Schemes.t * Config.t) list ->
  Stats.t list

(** Normalized slowdown against the uninstrumented baseline on the same
    platform; the baseline never gets the scheme's platform restriction
    (e.g. ideal PSP is normalized against the DRAM-cache baseline, as in
    Fig. 18). *)
val slowdown :
  ?scale:int -> Defs.t -> scheme:Cwsp_schemes.Schemes.t -> Config.t -> float

(** Per-cache memo effectiveness: (name, traffic, entries) for the
    compiled/trace/stats caches. Also exported as obs gauges. *)
val cache_stats : unit -> (string * Store.stats * int) list

(** Clear all memoized state. *)
val reset_caches : unit -> unit

(** End-to-end crash-consistency validation: compile with the full cWSP
    pipeline and, for each [(seed, crash_at)] of [points], inject a power
    failure at [crash_at], recover, compare — one [Harness.sweep], one
    result per point in order. *)
val validate_recovery :
  ?scale:int ->
  points:(int * int) list ->
  Defs.t ->
  (Cwsp_recovery.Harness.fault_report, string) result list
