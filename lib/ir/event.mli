(** Commit events, packed into a single native int each.

    The timing simulator replays millions of events per configuration, so
    the encoding is allocation-free: low 4 bits = kind tag, remaining
    bits = payload (a byte address for memory events, the static boundary
    id for boundary events, 0 otherwise). *)

type kind =
  | Alu       (** any non-memory instruction, including branches/calls *)
  | Load
  | Store
  | Ckpt      (** register checkpoint: a store to the NVM checkpoint area *)
  | Boundary  (** region-boundary commit *)
  | Fence
  | Atomic    (** atomic RMW / CAS: sync point that reads and writes memory *)
  | Flush     (** clwb-like line writeback; payload = byte address *)
  | Pfence    (** persist fence: drains pending flushes *)

val tag_of_kind : kind -> int
val kind_of_tag : int -> kind

val encode : kind -> payload:int -> int
val kind : int -> kind
val payload : int -> int

(** {2 Fast-path tags for the simulator's hot loop} *)

val tag : int -> int
val tag_alu : int
val tag_load : int
val tag_store : int
val tag_ckpt : int
val tag_boundary : int
val tag_fence : int
val tag_atomic : int
val tag_flush : int
val tag_pfence : int

val to_string : int -> string
