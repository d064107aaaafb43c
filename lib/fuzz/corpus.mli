(** Persistent on-disk corpus and campaign state.

    Layout under the campaign directory:

    - [corpus/<fp>.ir] — retained programs, printed with
      [Pp.program_str] (reloaded with [Parse.program]); [<fp>] is the
      16-hex-digit FNV-1a content fingerprint, so identical programs
      written by concurrent shards collapse to one file and creation is
      first-writer-wins (an existing file is never rewritten);
    - [findings/<fp>.ir] — auto-minimized counterexamples;
    - [state-<i>of<n>] — one shard's resumable campaign state, one
      [Cwsp_util.Json] object: master seed, batch cursor, exec/discard
      counters, the retention order (with per-entry origin), the
      coverage map in insertion order, and the deduplicated findings.
      Written atomically (tmp + rename) at
      batch boundaries only, so a killed campaign resumes from the last
      completed batch and — because item randomness streams off the
      absolute exec index — reaches the exact report a never-killed run
      produces. *)

open Cwsp_ir

val fingerprint : Prog.t -> string

type t (* an opened campaign directory *)

val open_dir : string -> t
val dir : t -> string

(** Write a corpus program; first writer wins. Returns the fingerprint. *)
val save_program : t -> Prog.t -> string

(** Write a minimized counterexample under [findings/]. *)
val save_finding : t -> Prog.t -> string

(** Write a finding's flight-recorder dump as [findings/<fp>.flight],
    next to its [.ir]; first writer wins. *)
val save_flight : t -> fp:string -> string -> unit

val load_program : t -> string -> Prog.t option

type saved_finding = {
  sf_key : string;       (** [Oracle.finding_key] — the dedupe key *)
  sf_kind : string;
  sf_fp : string;        (** fingerprint of the minimized program *)
  sf_instrs : int;       (** instruction count after minimization *)
  sf_detail : string;
}

type state = {
  mutable s_master_seed : int;
  mutable s_shard : int * int;
  mutable s_batch : int;          (** items per batch *)
  mutable s_next_batch : int;     (** first batch not yet completed *)
  mutable s_execs : int;
  mutable s_discards : int;
  mutable s_retained : (string * Coverage.origin) list; (** fp, in order *)
  s_cov : Coverage.t;
  mutable s_findings : saved_finding list; (** discovery order *)
}

val fresh_state : master_seed:int -> shard:int * int -> batch:int -> state

(** Atomic write of this shard's state file. *)
val save_state : t -> state -> unit

(** Load this shard's state file, if present and compatible with the
    given campaign parameters ([None] otherwise — the campaign then
    starts fresh). *)
val load_state :
  t -> master_seed:int -> shard:int * int -> batch:int -> state option
