(** A mutex-protected memoization table — the result store behind
    [Api]'s caches and the executor's job results.

    Contract: producers run outside the lock; a race on an absent key
    computes twice (deterministically equal values) and the first writer
    wins, so all readers observe one canonical value per key. [memo]
    traffic is counted so cache effectiveness stays observable. *)

type ('k, 'v) t

(** [memo] traffic totals: lookup hits, lookup misses, and produce
    races (productions discarded because an equal value won the insert). *)
type stats = { hits : int; misses : int; races : int }

val create : int -> ('k, 'v) t
val find_opt : ('k, 'v) t -> 'k -> 'v option

(** Number of stored results. *)
val length : ('k, 'v) t -> int

(** Traffic counters since creation (or the last [reset]). *)
val stats : ('k, 'v) t -> stats

(** [memo t k produce]: stored value for [k], computing if absent.
    First writer wins on a race. *)
val memo : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v

(** [memo]'s two halves, for a producer that fills several keys at
    once. [lookup]: the stored value, counted as a hit, or [None],
    counted as a miss. *)
val lookup : ('k, 'v) t -> 'k -> 'v option

(** [add t k v]: store [v] unless [k] already has a value, which wins
    (counted as a race); returns the stored value. *)
val add : ('k, 'v) t -> 'k -> 'v -> 'v

(** Clear entries and traffic counters. *)
val reset : ('k, 'v) t -> unit
