(** Bounded FIFO timestamp queue — the simulator's workhorse.

    Hardware queues (WPQ, write buffers) are modeled as a single-server
    FIFO with [size] slots: an item becoming ready at time r is admitted
    once a slot frees (backpressure), then completes after the in-order
    service of everything ahead of it. Only timestamps are stored.
    Service times are non-negative, so completions never decrease in
    push order. *)

type t

val create : size:int -> t

(** Allocation-free push (the engines' hot path): results are read back
    with [admit] and [last_completion]. [admit >= ready] (delayed while
    all slots hold unfinished work); [completion = max(admit, previous
    completion) + service]. *)
val push_u : t -> ready:float -> service:float -> unit

(** [(admit, completion)] of pushing one item — tupled convenience
    wrapper over [push_u]. *)
val push : t -> ready:float -> service:float -> float * float

val last_completion : t -> float

(** Admit time of the most recent push. *)
val admit : t -> float

(** The queue's result cells — slot 0 = last completion, slot 1 = admit
    of the last push. Returned as the raw float array so engine hot
    loops can read both results of a [push_u] with unboxed array loads
    (a float-returning accessor would box without flambda). *)
val times : t -> float array

(** Entries still in flight at [now]; at most [size]. O(log size): the
    entries in flight are the newest ones. *)
val occupancy : t -> now:float -> int
