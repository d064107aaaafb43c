(** Structured diagnostics for the static crash-consistency verifier.

    Every check reports a [t] rather than a bare string so that callers
    (the CLI, the test oracles, the pipeline hook) can filter by rule and
    severity, count errors, and render uniformly. The position fields use
    the same (block, instruction) coordinates as the rest of the compiler;
    program-level findings use block [-1]. *)

type severity = Error | Warning

type rule =
  | Antidep              (* uncut memory antidependence (IV-A) *)
  | Entry_boundary       (* function entry not opened by a boundary *)
  | Loop_boundary        (* loop header without a boundary *)
  | Sync_boundary        (* atomic/fence not isolated by boundaries *)
  | Call_boundary        (* call site without a trailing boundary *)
  | Live_in_uncovered    (* live-in register with no recovery-slice entry (IV-B) *)
  | Slot_not_checkpointed(* slice reads a slot with no surviving checkpoint (IV-C) *)
  | Slot_ref_undefined   (* slice reads a register defined only after its boundary *)
  | Slice_unknown_global (* slice address expression names a missing global *)
  | Duplicate_boundary_id
  | Nonmonotone_boundary_id
  | Boundary_id_range    (* id outside the slice table, or owner mismatch *)
  | Ckpt_placement       (* checkpoint not attached to a following boundary *)
  | Ckpt_area_store      (* user store targets the checkpoint slot region *)
  | Slice_value_mismatch (* semantic: slice provably restores a wrong value *)
  | Stale_slot_read      (* semantic: slot read holds the wrong vintage *)
  | Slice_unprovable     (* semantic: neither proven nor refuted *)
  | Missing_flush        (* persist: store may be dirty at a commit point *)
  | Missing_fence        (* persist: flushed but unfenced at a commit point *)
  | Early_commit         (* persist: the fence exists but after the commit *)
  | Redundant_flush      (* persist lint: flush covers no dirty site *)
  | Data_race            (* race: conflicting pair, locks prove nothing *)
  | Unlocked_shared_write(* race: conflicting pair with no locks at all *)
  | Tid_overlap_unprovable (* race: tid-indexed footprints not provably disjoint *)
  | Redundant_atomic     (* race lint: atomic on a thread-private word *)

let rule_name = function
  | Antidep -> "antidep"
  | Entry_boundary -> "entry-boundary"
  | Loop_boundary -> "loop-boundary"
  | Sync_boundary -> "sync-boundary"
  | Call_boundary -> "call-boundary"
  | Live_in_uncovered -> "live-in-uncovered"
  | Slot_not_checkpointed -> "slot-not-checkpointed"
  | Slot_ref_undefined -> "slot-ref-undefined"
  | Slice_unknown_global -> "slice-unknown-global"
  | Duplicate_boundary_id -> "duplicate-boundary-id"
  | Nonmonotone_boundary_id -> "nonmonotone-boundary-id"
  | Boundary_id_range -> "boundary-id-range"
  | Ckpt_placement -> "ckpt-placement"
  | Ckpt_area_store -> "ckpt-area-store"
  | Slice_value_mismatch -> "slice-value-mismatch"
  | Stale_slot_read -> "stale-slot-read"
  | Slice_unprovable -> "slice-unprovable"
  | Missing_flush -> "missing-flush"
  | Missing_fence -> "missing-fence"
  | Early_commit -> "early-commit"
  | Redundant_flush -> "redundant-flush"
  | Data_race -> "data-race"
  | Unlocked_shared_write -> "unlocked-shared-write"
  | Tid_overlap_unprovable -> "tid-overlap-unprovable"
  | Redundant_atomic -> "redundant-atomic"

let severity_name = function Error -> "error" | Warning -> "warning"

type t = {
  rule : rule;
  severity : severity;
  func : string;
  block : int; (* -1 for program-level findings *)
  instr : int;
  message : string;
}

let make severity rule ~func ~block ~instr fmt =
  Printf.ksprintf
    (fun message -> { rule; severity; func; block; instr; message })
    fmt

let error rule ~func ~block ~instr fmt = make Error rule ~func ~block ~instr fmt
let warning rule ~func ~block ~instr fmt = make Warning rule ~func ~block ~instr fmt

let to_string d =
  let pos =
    if d.block < 0 then d.func
    else Printf.sprintf "%s:(%d,%d)" d.func d.block d.instr
  in
  Printf.sprintf "[%s] %s %s: %s" (severity_name d.severity) (rule_name d.rule)
    pos d.message

let to_json d =
  Cwsp_util.Json.(
    Obj
      [
        ("rule", Str (rule_name d.rule));
        ("severity", Str (severity_name d.severity)); ("func", Str d.func);
        ("block", int d.block); ("instr", int d.instr);
        ("message", Str d.message);
      ])

(* Variant declaration order for the rule component; Stdlib.compare on
   constant constructors follows it. *)
let compare a b =
  let c = Stdlib.compare a.rule b.rule in
  if c <> 0 then c
  else
    let c = String.compare a.func b.func in
    if c <> 0 then c
    else
      let c = Int.compare a.block b.block in
      if c <> 0 then c
      else
        let c = Int.compare a.instr b.instr in
        if c <> 0 then c
        else
          let c = Stdlib.compare a.severity b.severity in
          if c <> 0 then c else String.compare a.message b.message

let is_error d = d.severity = Error
