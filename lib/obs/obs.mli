(** Whole-stack observability: spans, counters, histograms and gauges,
    exported as Chrome-trace-event JSON (Perfetto / chrome://tracing)
    and a flat metrics.json.

    Telemetry is a side artifact: nothing here feeds back into compiled
    programs, traces, statistics or rendered output, so golden outputs
    are byte-identical with tracing on or off and at any pool width.
    The disabled path is a single branch on [!on] — no allocation, no
    closure capture. Spans land in per-domain ring buffers (bounded;
    overflow overwrites the oldest and is counted) merged at export. *)

(** The static fast-path flag. Read directly ([if !Obs.on then ...])
    before building dynamic names/args; mutate only via
    [enable]/[configure]/[reset], before spawning domains. *)
val on : bool ref

val enable : unit -> unit

(** Microseconds since process start (the trace timebase). *)
val now_us : unit -> float

(** {1 Spans} *)

(** Open a span on the calling domain. [args] become Chrome trace args. *)
val span_begin :
  ?cat:string -> ?args:(string * float) list -> string -> unit

(** Close the innermost open span (records a complete "X" event),
    adding [args] (known only at the end, such as a count of work done)
    after the ones it opened with. Unmatched calls are counted, never
    raised. *)
val span_end : ?args:(string * float) list -> unit -> unit

(** Open spans on the calling domain (0 when balanced or disabled). *)
val open_depth : unit -> int

(** Unmatched [span_end] calls seen so far. *)
val unbalanced_ends : unit -> int

(** Time [f] under a span. Allocates the closure even when disabled —
    for coarse per-run sites only, not per-event hot paths. *)
val time :
  ?cat:string -> ?args:(string * float) list -> string -> (unit -> 'a) -> 'a

(** {1 Counter samples and tracks} *)

(** Emit a Chrome "C" counter sample. [pid] 0 is the real-time process;
    [alloc_track] pids carry their own timeline (e.g. simulated µs). *)
val counter_event :
  ?pid:int -> name:string -> ts_us:float -> (string * float) list -> unit

(** Fresh Perfetto process track; named via process_name metadata. *)
val alloc_track : string -> int

(** {1 Monotonic counters} *)

module Counter : sig
  type t

  (** Find-or-create by name (registered globally for export). *)
  val make : string -> t

  val add : t -> int -> unit
  val incr : t -> unit
  val value : t -> int
  val name : t -> string
end

(** {1 Histograms} *)

(** Default duration bounds, µs: 1µs..10s on a 1-2-5 grid. *)
val default_bounds : float array

module Hist : sig
  type t

  (** Find-or-create by name; [bounds] applies only on creation. *)
  val make : ?bounds:float array -> string -> t

  val add : t -> float -> unit
  val count : t -> int
end

(** {1 Gauges} *)

(** Register a pull-style provider sampled once at [write_metrics]. *)
val register_gauges : (unit -> (string * float) list) -> unit

(** {1 Snapshots and export} *)

type span_view = {
  sp_name : string;
  sp_cat : string;
  sp_ts_us : float;
  sp_dur_us : float;
  sp_tid : int;
  sp_args : (string * float) list;
}

(** All completed spans, merged across domains, timestamp-sorted. *)
val snapshot_spans : unit -> span_view list

(** Events overwritten in full rings, program-wide. *)
val dropped_events : unit -> int

(** Per-domain overflow accounting: (tid, dropped) sorted by tid, zeros
    included. Exported under [spans.dropped_per_domain] in metrics. *)
val dropped_per_domain : unit -> (int * int) list

(** Write the Chrome trace-event JSON file. *)
val write_trace : string -> unit

(** Write the flat metrics JSON file (counters, histogram summaries,
    gauges, span accounting; sorted keys). *)
val write_metrics : string -> unit

(** {1 CLI wiring} *)

(** Set telemetry targets: explicit paths win over the [CWSP_TRACE] /
    [CWSP_METRICS] environment; either enables instrumentation.
    [CWSP_TRACE_BUF] overrides ring capacity. Call once at startup. *)
val configure : ?trace:string -> ?metrics:string -> unit -> unit

(** Write configured artifacts (no-op when none); notices to stderr. *)
val finalize : unit -> unit

(** Test-only: disable and clear all recorded state. *)
val reset : unit -> unit
