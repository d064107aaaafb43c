(** Region-buffered I/O (the paper's Section VIII "I/O and Device States"
    proposal, implemented).

    Irrevocable operations cannot be re-executed, so cWSP suggests
    battery-backed redo buffers indexed by region id: a region's I/O is
    held in its buffer while the region is speculative and released to
    the device only once the region is *persisted* — giving exactly-once
    device effects across power failure, because

    - a power failure before release discards the buffered I/O, and the
      re-executed region regenerates it;
    - a power failure after release finds the region persisted, so it is
      never re-executed.

    Here the "device" is the interpreter's [__out] stream. The recovery
    harness tracks, per tracked region, the outputs produced inside it;
    [released t ~oldest_unpersisted] is the device-visible prefix at a
    crash, and the harness checks that prefix plus the recovered run's
    output equals the failure-free output — the exactly-once property. *)

type t = {
  regions : int array; (* ring: region index of each tracked entry *)
  totals : int array;
    (* outputs produced by the time that region began; cumulative *)
  mutable newest : int; (* slot of the newest entry *)
  mutable len : int;
}

(** A buffer remembering the newest [capacity] regions — the tracked
    window: a crash never rolls back past it, so older entries are never
    asked for. *)
let create ~capacity =
  {
    regions = Array.make capacity 0;
    totals = Array.make capacity 0;
    newest = 0;
    len = 1 (* region 0 begins with nothing produced *);
  }

(** Record that [total_outputs] had been produced when region
    [region_index] began. *)
let on_region_start t ~region_index ~total_outputs =
  let cap = Array.length t.regions in
  t.newest <- (t.newest + 1) mod cap;
  t.regions.(t.newest) <- region_index;
  t.totals.(t.newest) <- total_outputs;
  if t.len < cap then t.len <- t.len + 1

(** Number of outputs already released to the device when the oldest
    unpersisted region is [region_index]: everything buffered by regions
    that persisted before it. The region must be within the buffer's
    window. *)
let released t ~oldest_unpersisted =
  let cap = Array.length t.regions in
  let rec find back =
    if back >= t.len then
      invalid_arg "Io_buffer.released: region older than the tracked window"
    else
      let i = (t.newest - back + cap) mod cap in
      if t.regions.(i) <= oldest_unpersisted then t.totals.(i)
      else find (back + 1)
  in
  find 0
