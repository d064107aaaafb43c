(** Persistent flight recorder: a checksummed event ring in a reserved
    NVM region, appendable before and after power cuts.

    Records are fixed 64-byte slots: a commit/checksum word (written
    last), a monotonic LSN, the crash-epoch, an event kind and four
    integer arguments. There is no mutable ring metadata in NVM —
    [attach] rebuilds the cursor by scanning for intact records — so a
    crash at any point leaves at worst one torn frontier slot, which the
    next append overwrites. *)

type t

(** {1 Geometry} *)

val record_words : int
val record_bytes : int
val super_bytes : int
val default_capacity : int
val max_capacity : int

(** Byte address of record slot [i] inside the flight region. *)
val slot_addr : int -> int

(** {1 Event vocabulary} *)

type kind =
  | Boundary
  | Telemetry
  | Crash
  | Inject
  | Rung
  | Decision
  | Resume
  | Restart
  | Cell
  | Note

val kind_of_code : int -> kind option
val kind_name : kind -> string

(** Decode the outcome / fault-class argument codes used by [Decision],
    [Cell] and [Inject] records. Defined here so a dump can be decoded
    without the recovery library. *)
val outcome_name : int -> string

val fault_name : int -> string

(** {1 Ring lifecycle} *)

(** Initialize the superblock and return a fresh recorder (epoch 0,
    next LSN 1). Raises [Invalid_argument] if [capacity] is outside
    (0, [max_capacity]]. *)
val format : ?capacity:int -> Cwsp_ir.Memory.t -> t

(** Re-open the ring of a (possibly post-crash) image: validates the
    superblock and scans every slot; the cursor resumes one past the
    largest intact LSN, at the largest intact epoch. [None] when the
    image carries no valid superblock. *)
val attach : Cwsp_ir.Memory.t -> t option

val capacity : t -> int
val epoch : t -> int
val next_lsn : t -> int

(** Start a new crash epoch (call at each recovery attach). *)
val bump_epoch : t -> unit

(** Append one event (fields first, commit word last). *)
val append : t -> kind:kind -> int -> int -> int -> int -> unit

(** Word addresses of the most recently appended record, commit word
    first — the surface a torn persist at the crash point exposes. *)
val frontier_words : t -> int list

(** {1 Record codec} (exposed for the post-mortem auditor and tests) *)

val record_sum :
  lsn:int -> epoch:int -> kind:int -> a0:int -> a1:int -> a2:int -> a3:int -> int

val read_slot :
  Cwsp_ir.Memory.t ->
  capacity:int ->
  int ->
  [ `Empty | `Bad | `Record of int * int * int * (int * int * int * int) ]

val read_super : Cwsp_ir.Memory.t -> int option

(** {1 Dump artifact}

    The text artifact attached to campaign cells and fuzz findings: the
    nonzero words of the flight region, address-sorted, one hex pair per
    line under a version header. Deterministic bytes for identical
    rings. *)

val dump_header : string
val dump_string : Cwsp_ir.Memory.t -> string
val load_dump_string : string -> Cwsp_ir.Memory.t option
val load_dump : string -> Cwsp_ir.Memory.t option
