(** Adversarial fault model for the persistence path.

    The clean-crash harness assumes fail-stop power loss: every byte that
    reached NVM is intact and every undo-log record is trustworthy. Real
    NVM failure modes are messier — WITCHER-style torn/partial persists,
    dropped persist-buffer tails, bit rot in the log or checkpoint area,
    and power failing again in the middle of recovery itself. This module
    names those fault classes and provides the deterministic primitives
    (word tearing, bit flips, checksums) that the injectors in [Harness]
    and the record format in [Mc_logs] share.

    The adversary is single-fault: one class, one injection site per
    crash. That is the standard model for persistence-path hardening
    (one checksum detects any single corruption of the record it covers;
    colliding double faults are out of scope). *)

type cls =
  | Torn_persist  (** an 8-byte store reaches NVM only as a byte prefix *)
  | Dropped_tail  (** one MC silently drops the tail of its persist buffer *)
  | Log_corruption  (** undo-log records flipped, truncated, or removed *)
  | Ckpt_bitflip  (** a bit flip in a checkpoint slot the slice will read *)
  | Recovery_crash  (** power fails again at an instruction of recovery *)

let all =
  [ Torn_persist; Dropped_tail; Log_corruption; Ckpt_bitflip; Recovery_crash ]

let name = function
  | Torn_persist -> "torn-persist"
  | Dropped_tail -> "dropped-tail"
  | Log_corruption -> "log-corruption"
  | Ckpt_bitflip -> "ckpt-bitflip"
  | Recovery_crash -> "recovery-crash"

let of_name s =
  List.find_opt (fun c -> name c = s) all

(* The checksum core lives in [Cwsp_util.Checksum] so the flight
   recorder (which this library depends on) shares the exact sum the
   undo-log records use. *)
let value_sum = Cwsp_util.Checksum.value_sum
let combine = Cwsp_util.Checksum.combine

(** Checksum of a full undo-log record. Covers every field the replay
    trusts: position (region, per-MC sequence number), address, the OLD
    value replay writes back, and the checksum of the NEW value (used to
    audit that a "persisted" store actually reached NVM). *)
let record_sum ~region ~lsn ~addr ~old ~new_sum =
  combine (combine (combine (combine (combine 0 region) lsn) addr) old) new_sum

(** Tear a persisting 8-byte store: only a (possibly empty) byte prefix
    of [value] reaches NVM — low-order bytes, little-endian — and the
    rest of the word keeps [old]. Picks uniformly among the prefix
    lengths that actually change the word (when the values differ only
    in the surviving prefix the store is effectively atomic); returns
    [value] unchanged if no tear is observable. *)
let tear rng ~value ~old =
  let at k =
    let mask = (1 lsl (8 * k)) - 1 in
    value land mask lor (old land lnot mask)
  in
  let opts =
    List.filter (fun k -> at k <> value) [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  match opts with
  | [] -> value
  | l -> at (List.nth l (Cwsp_util.Rng.int rng (List.length l)))

(** Flip one uniformly chosen bit of a stored word (62-bit payload, so
    the result stays a valid OCaml int on 64-bit platforms). *)
let flip_bit rng v = v lxor (1 lsl Cwsp_util.Rng.int rng 62)
