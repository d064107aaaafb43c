(** Hardware undo logging at the memory controllers (Section V-B2):
    append-only, per-region log arrays kept in each MC's local NVM.
    Append-only eliminates the Fig. 10(c) overwriting hazard; per-region
    arrays make deallocation a Region-ID-indexed reclaim with no search
    cost.

    Hardened against the adversarial fault model: each record carries a
    per-(MC, region) log sequence number, a checksum over every field
    replay trusts, and the checksum of the NEW value the store wrote;
    each (MC, region) array keeps a durable count header so silent tail
    truncation is detectable. *)

type entry = {
  e_lsn : int;  (** append index within this (MC, region) array *)
  mutable e_addr : int;
  mutable e_old : int;
  e_new_sum : int;  (** [Fault.value_sum] of the NEW value the store wrote *)
  mutable e_sum : int;  (** [Fault.record_sum] over (region, lsn, addr, old, new_sum) *)
}

(** Does the record's checksum match its fields? *)
val entry_ok : region:int -> entry -> bool

type t

val create : n_mcs:int -> t

(** The MC an address belongs to (256-byte channel interleave). *)
val mc_of : t -> int -> int

(** The number of memory controllers. *)
val n_mcs : t -> int

(** A store of [region] arrived at its MC: undo-log the old value.
    [value] is the new value being stored (only its checksum is kept). *)
val log : t -> region:int -> addr:int -> old:int -> value:int -> unit

(** The region became non-speculative: every MC reclaims its array. *)
val deallocate : t -> region:int -> unit

(** Entries of one region across all MCs, newest first per MC (program
    order per location is preserved — a location maps to one MC). *)
val region_entries : t -> region:int -> entry list

(** Drop all logs and count headers — recovery's final truncation step. *)
val reset : t -> unit

(** Structural copy sharing no mutable state with [t] — used to snapshot
    the surviving log image at a crash point. *)
val copy : t -> t

(** Revert exactly the regions for which [should_revert] holds, in
    reverse chronological Region-ID order, removing their logs — the
    multi-core variant where each thread contributes its own
    unpersisted-region set (Section VIII). *)
val revert_where :
  t -> should_revert:(int -> bool) -> apply:(int -> int -> unit) -> unit

(** Live (not yet deallocated) entries — bounded in hardware by the RBT
    size times the handful of stores per region. *)
val live_entries : t -> int

(** Audit of one region's logs across all MCs: [au_structural] lists
    count-header mismatches and LSN gaps (records are missing, so the
    region's write set is unknowable); [au_bad] lists records whose
    checksum fails (present but untrustworthy). Both empty = verified. *)
type audit = { au_structural : string list; au_bad : entry list }

val audit_region : t -> region:int -> audit

(** Fault injector: silently remove the newest records of one (MC,
    region) array in [regions] without updating the durable count header.
    Returns a description, or [None] if there was nothing to drop. *)
val inject_drop_tail :
  t -> Cwsp_util.Rng.t -> regions:int list -> string option

(** Fault injector: corrupt one record of one region in [regions] — flip
    a bit in its address, old value, or checksum, or remove it from the
    middle of the list (header intact, LSN gap). Returns a description,
    or [None] if there was nothing to corrupt. *)
val inject_corrupt :
  t -> Cwsp_util.Rng.t -> regions:int list -> string option
