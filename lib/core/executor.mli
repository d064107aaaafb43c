(** The execute layer: deduplicate declared jobs, generate each shared
    trace exactly once, then replay the timing points across an OCaml 5
    domain pool. Two phases with a barrier: traces (one per distinct
    workload/scale/compile-config), then stats (one task per replay
    group — the points sharing a trace and a cache hierarchy, whose
    caches are simulated once — every trace already a cache hit).
    [jobs = 1] runs on the calling domain with no spawns. When
    [Cwsp_obs.Obs.on] is set, tasks get spans (with queue-wait args),
    phases emit per-domain utilization samples, and dedupe totals feed
    counters. *)

(** Pool width used when [run] gets no explicit [~jobs] (default 1).
    Clamped to the hardware domain count — oversubscribed domain pools
    lose most of their wall time to stop-the-world minor-GC syncs. *)
val set_default_jobs : int -> unit

(** Execute a job plan: dedupe, trace phase, barrier, stats phase. *)
val run : ?jobs:int -> Job.t list -> unit

(** Parallel map over the domain pool, deterministic: result order is
    input order regardless of scheduling. [jobs <= 1] maps on the
    calling domain. [f] must follow the domain-safety contract
    (DESIGN.md §5b): share state only through mutex-protected stores.
    [label], when tracing, names input [i]'s span; [cat] categorizes
    the spans (default "executor"). *)
val map_pool :
  ?cat:string ->
  ?label:(int -> string) ->
  jobs:int ->
  ('a -> 'b) ->
  'a array ->
  'b array
