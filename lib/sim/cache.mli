(** Set-associative write-back, write-allocate cache with LRU
    replacement. Tag storage is paged: each page of whole sets (512
    ways) is allocated by the first probe that lands in it, so memory
    and set-up cost are proportional to the pages touched, not to the
    cache's capacity — a 64MB direct-mapped DRAM cache costs only the
    pages its lines fall in. *)

type t

val line_bytes : int

val create : Config.cache_level -> t

(** Access the line containing [addr], allocating it on miss; [write]
    marks it dirty. Returns the hit flag; a dirty eviction's line
    address is left in [last_dirty_evict] (-1 when none) until the next
    probe. Allocation-free except for the first probe of a page. *)
val probe : t -> addr:int -> write:bool -> bool

val last_dirty_evict : t -> int

(** Install a dirty line arriving as a writeback from an upper level. *)
val install_dirty : t -> line_addr:int -> unit

val miss_rate : t -> float
