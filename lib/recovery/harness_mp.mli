(** Multi-core power-failure injection and recovery (Section VIII,
    "Recovery for Multi-Cores"): a global region-id counter, global
    per-MC undo-log arrays, per-thread snapshots and per-thread
    *independent* recovery. A thread's recovery point never crosses one
    of its committed synchronization points — the drain-at-sync
    semantics, plus a post-sync resume snapshot, make a committed atomic
    irrevocable (otherwise another thread that already observed it could
    be left inconsistent; see DESIGN.md §5a). *)

(** Full experiment for schedule-deterministic DRF workloads: compare the
    final program-visible NVM state of a crashed-and-recovered run with a
    failure-free run (the checkpoint area is excluded — re-execution
    under a different interleaving is entitled to a different checkpoint
    history). *)
val validate :
  ?window:int ->
  seed:int ->
  crash_at:int ->
  Cwsp_compiler.Pipeline.compiled ->
  threads:int ->
  worker:string ->
  (unit, string) result
