(** Open-addressing int -> float map for the engine's hot per-address
    state. No allocation on probe or in-place update (values live in an
    unboxed float array); keys must be non-negative. *)

type t

(** [create n] sizes the table for about [n] expected bindings. *)
val create : int -> t

(** [find_def t k def] is the value bound to [k], or [def]. *)
val find_def : t -> int -> float -> float

(** Bind [k] to [v], replacing any previous binding. [k] must be >= 0. *)
val put : t -> int -> float -> unit

val length : t -> int

(** [prune t ~floor]: when [t] is at least a quarter full, drop every
    binding whose value is [<= floor], keeping the capacity. *)
val prune : t -> floor:float -> unit
