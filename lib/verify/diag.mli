(** Structured diagnostics for the static crash-consistency verifier:
    a rule identifier, a severity, a (function, block, instruction)
    position and a human-readable message. *)

type severity = Error | Warning

type rule =
  | Antidep               (** uncut memory antidependence (IV-A) *)
  | Entry_boundary        (** function entry not opened by a boundary *)
  | Loop_boundary         (** loop header without a boundary *)
  | Sync_boundary         (** atomic/fence not isolated by boundaries *)
  | Call_boundary         (** call site without a trailing boundary *)
  | Live_in_uncovered     (** live-in register with no slice entry (IV-B) *)
  | Slot_not_checkpointed (** slice slot with no surviving checkpoint (IV-C) *)
  | Slot_ref_undefined    (** slice reads a register defined only after its boundary *)
  | Slice_unknown_global  (** slice address expression names a missing global *)
  | Duplicate_boundary_id
  | Nonmonotone_boundary_id
  | Boundary_id_range     (** id outside the slice table, or owner mismatch *)
  | Ckpt_placement        (** checkpoint not attached to a following boundary *)
  | Ckpt_area_store       (** user store targets the checkpoint slot region *)
  | Slice_value_mismatch  (** semantic: slice provably restores a wrong value (IV-C/VII) *)
  | Stale_slot_read       (** semantic: slice shape is right but a slot it reads
                              holds the wrong vintage (pruned/clobbered checkpoint) *)
  | Slice_unprovable      (** semantic: equality neither proven nor refuted *)
  | Missing_flush         (** persist: a store may still be dirty in the cache
                              at a commit point ([Persist_check]) *)
  | Missing_fence         (** persist: flushed but not fenced before a commit *)
  | Early_commit          (** persist: a fence exists but only after the commit *)
  | Redundant_flush       (** persist lint: flush upgrades no dirty site on any
                              path *)
  | Data_race             (** race: conflicting cross-thread pair whose locks
                              prove no exclusion ([Race_check]) *)
  | Unlocked_shared_write (** race: conflicting cross-thread pair with no
                              locks held at all *)
  | Tid_overlap_unprovable(** race: tid-indexed footprints not provably
                              disjoint across threads *)
  | Redundant_atomic      (** race lint: atomic RMW on a provably
                              thread-private word *)

(** Stable kebab-case name, used by tests and the CLI. *)
val rule_name : rule -> string

val severity_name : severity -> string

type t = {
  rule : rule;
  severity : severity;
  func : string;
  block : int;  (** -1 for program-level findings *)
  instr : int;
  message : string;
}

val error :
  rule -> func:string -> block:int -> instr:int ->
  ('a, unit, string, t) format4 -> 'a

val warning :
  rule -> func:string -> block:int -> instr:int ->
  ('a, unit, string, t) format4 -> 'a

val to_string : t -> string

(** The JSON record [{"rule":…,"severity":…,"func":…,"block":…,
    "instr":…,"message":…}] for CI annotation. *)
val to_json : t -> Cwsp_util.Json.t

(** Total order for stable reports: (rule, func, block, instr, severity,
    message). Rule order follows the variant declaration order. *)
val compare : t -> t -> int

val is_error : t -> bool
