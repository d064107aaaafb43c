(** The cache-hierarchy walker: a core's private L1 in front of the
    shared levels (L2 and deeper). An access is served by the first
    hitting level and allocates the line in every level above. Dirty L1
    evictions are surfaced to the engine (they enter the L1D write
    buffer); inner-level evictions install one level down; LLC evictions
    are counted (persist-path schemes silently drop them — the data
    already traveled the persist path). *)

type t = {
  cfg : Config.t;
  l1 : Cache.t;
  shared : Cache.t array; (** L2 and deeper; the same caches on every core *)
  hit_ns : float array;   (** per level, L1 first *)
  mutable nvm_reads : int;
  mutable llc_dirty_evictions : int;
  mutable last_l1_evict : int; (** line address, -1 = none; see [probe] *)
}

val create : Config.t -> t

(** Another core's view of the same machine: a fresh private L1 and
    counters over the same shared levels. *)
val sibling : t -> t

(** {2 Access (the engine's hot path)} *)

(** Flags packed into a [probe] result alongside the hit level
    ([land level_mask], = number of levels when served by memory). *)
val level_mask : int

val from_memory_bit : int
val l1_evict_bit : int
val llc_evict_bit : int

(** Access [addr] through the hierarchy. The caller unpacks the level
    and flags and reads the serving latency from
    [hit_ns]/[cfg.mem.read_ns] itself. A dirty L1 eviction's line
    address is left in [last_l1_evict] until the next probe. *)
val probe : t -> addr:int -> write:bool -> int

val last_l1_evict : t -> int

(** A writeback arriving from the L1D write buffer installs into L2. *)
val wb_install : t -> line_addr:int -> unit

val l1_miss_rate : t -> float
val llc_miss_rate : t -> float
