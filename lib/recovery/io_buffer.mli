(** Region-buffered I/O (the paper's Section VIII proposal, implemented):
    a region's device output is held in a battery-backed redo buffer
    while the region is speculative and released only once the region
    persists — exactly-once device effects across power failure. *)

type t

(** A buffer over the newest [capacity] regions (the tracked window). *)
val create : capacity:int -> t

(** Record that [total_outputs] had been produced when region
    [region_index] began. *)
val on_region_start : t -> region_index:int -> total_outputs:int -> unit

(** Outputs already released to the device when the oldest unpersisted
    region is [oldest_unpersisted]. Raises [Invalid_argument] if that
    region is older than the buffer's window. *)
val released : t -> oldest_unpersisted:int -> int
