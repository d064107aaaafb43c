(** Persistent flight recorder: a fixed-layout, checksummed event ring
    living inside the simulated NVM image.

    The paper's promise is that *whole-system* state survives power
    failure; this module makes the observability state a persistence
    client too. Events are appended to a ring of fixed 64-byte records
    in a reserved NVM region ([Layout.flight_base]); each record carries
    a monotonic LSN, the crash-epoch it was written in, and a checksum
    over every field — the same per-record discipline as the undo logs
    ([Mc_logs]) — so a post-crash reader can separate intact records
    from torn ones without any volatile metadata.

    Crash tolerance is by construction, not by protocol:

    - The superblock (magic, capacity, checksum) is written once at
      [format] and never mutated again.
    - A record's fields are written first and its checksum word last
      (the commit word), so a crash mid-append leaves a slot that fails
      its checksum — a torn record, not a lie.
    - There is no head/tail pointer in NVM. [attach] rebuilds the write
      cursor by scanning every slot for valid records: the next LSN is
      one past the largest intact LSN, and the current epoch is the
      largest intact epoch. Torn frontier slots are simply overwritten
      by the next append.

    The ring is ordinary simulated NVM — faults tear its words exactly
    like any other persist — but it is observability state: the golden
    image comparisons exclude the region, and nothing in the recovery
    protocol ever reads it, so enabling the recorder cannot change any
    outcome. *)

module Memory = Cwsp_ir.Memory
module Layout = Cwsp_ir.Layout
module Checksum = Cwsp_util.Checksum

(* ---- geometry ---- *)

let magic = 0x43574631 (* "CWF1" *)
let record_words = 8
let record_bytes = record_words * 8
let super_words = 3
let super_bytes = super_words * 8
let slot_addr i = Layout.flight_base + super_bytes + (i * record_bytes)
let default_capacity = 512

let max_capacity =
  (Layout.flight_bytes - super_bytes) / record_bytes

(* ---- event vocabulary ---- *)

type kind =
  | Boundary  (** a region boundary committed: (step, static_id, live_log_entries, sync) *)
  | Telemetry  (** persist-path telemetry at a boundary: (regions, live_entries, sync_floor, slots) *)
  | Crash  (** power cut: (crash_step, nominal_region, n_mcs, 0) *)
  | Inject  (** adversarial fault injected: (class, site, 0, 0) *)
  | Rung  (** recovery ladder probe: (back, usable, fatal, skips) *)
  | Decision  (** ladder verdict: (outcome, back, detections, state_ok) *)
  | Resume  (** recovery resumed execution: (region, slices, reverts, 0) *)
  | Restart  (** recovery itself crashed and restarted: (sweep_point, 0, 0, 0) *)
  | Cell  (** campaign cell outcome: (index, outcome, detections, rep) *)
  | Note  (** free-form marker: (a, b, c, d) *)

let kinds =
  [ Boundary; Telemetry; Crash; Inject; Rung; Decision; Resume; Restart; Cell; Note ]

let kind_code = function
  | Boundary -> 1
  | Telemetry -> 2
  | Crash -> 3
  | Inject -> 4
  | Rung -> 5
  | Decision -> 6
  | Resume -> 7
  | Restart -> 8
  | Cell -> 9
  | Note -> 10

let kind_of_code c = List.find_opt (fun k -> kind_code k = c) kinds

let kind_name = function
  | Boundary -> "boundary"
  | Telemetry -> "telemetry"
  | Crash -> "crash"
  | Inject -> "inject"
  | Rung -> "rung"
  | Decision -> "decision"
  | Resume -> "resume"
  | Restart -> "restart"
  | Cell -> "cell"
  | Note -> "note"

(* Shared arg vocabularies. The codes are defined here (not in the
   recovery library) so the post-mortem reader can decode a dump without
   depending on — or being depended on by — the protocol code. *)

let outcome_name = function
  | 0 -> "recovered"
  | 1 -> "degraded"
  | 2 -> "refused"
  | 3 -> "escaped"
  | 4 -> "masked"
  | n -> Printf.sprintf "outcome-%d" n

let fault_name = function
  | 0 -> "none"
  | 1 -> "torn-persist"
  | 2 -> "dropped-tail"
  | 3 -> "log-corruption"
  | 4 -> "ckpt-bitflip"
  | 5 -> "recovery-crash"
  | n -> Printf.sprintf "fault-%d" n

(* ---- record codec ---- *)

let record_sum ~lsn ~epoch ~kind ~a0 ~a1 ~a2 ~a3 =
  Checksum.words [ lsn; epoch; kind; a0; a1; a2; a3 ]

let super_sum ~capacity = Checksum.words [ magic; capacity ]

(* ---- recorder handle ---- *)

type t = {
  mem : Memory.t;
  capacity : int;
  mutable next_lsn : int; (* LSN the next append will take; >= 1 *)
  mutable cur_epoch : int;
}

let capacity t = t.capacity
let epoch t = t.cur_epoch
let next_lsn t = t.next_lsn
let bump_epoch t = t.cur_epoch <- t.cur_epoch + 1

let format ?(capacity = default_capacity) mem =
  if capacity <= 0 || capacity > max_capacity then
    invalid_arg "Recorder.format: capacity";
  Memory.write mem Layout.flight_base magic;
  Memory.write mem (Layout.flight_base + 8) capacity;
  Memory.write mem (Layout.flight_base + 16) (super_sum ~capacity);
  { mem; capacity; next_lsn = 1; cur_epoch = 0 }

let read_super mem =
  let m = Memory.read mem Layout.flight_base in
  let cap = Memory.read mem (Layout.flight_base + 8) in
  let sum = Memory.read mem (Layout.flight_base + 16) in
  if m = magic && cap > 0 && cap <= max_capacity && sum = super_sum ~capacity:cap
  then Some cap
  else None

(* A slot holds a valid record iff its commit word matches the checksum
   of its fields, its LSN is positive, and the LSN actually maps to this
   slot — the last check rejects records smeared across slots. *)
let read_slot mem ~capacity i =
  let a = slot_addr i in
  let sum = Memory.read mem a in
  let lsn = Memory.read mem (a + 8) in
  let epoch = Memory.read mem (a + 16) in
  let kind = Memory.read mem (a + 24) in
  let a0 = Memory.read mem (a + 32) in
  let a1 = Memory.read mem (a + 40) in
  let a2 = Memory.read mem (a + 48) in
  let a3 = Memory.read mem (a + 56) in
  if sum = 0 && lsn = 0 && epoch = 0 && kind = 0 && a0 = 0 && a1 = 0 && a2 = 0 && a3 = 0
  then `Empty
  else if
    lsn >= 1
    && (lsn - 1) mod capacity = i
    && sum = record_sum ~lsn ~epoch ~kind ~a0 ~a1 ~a2 ~a3
  then `Record (lsn, epoch, kind, (a0, a1, a2, a3))
  else `Bad

let attach mem =
  match read_super mem with
  | None -> None
  | Some capacity ->
    let max_lsn = ref 0 and max_epoch = ref 0 in
    for i = 0 to capacity - 1 do
      match read_slot mem ~capacity i with
      | `Record (lsn, epoch, _, _) ->
        if lsn > !max_lsn then max_lsn := lsn;
        if epoch > !max_epoch then max_epoch := epoch
      | `Empty | `Bad -> ()
    done;
    Some { mem; capacity; next_lsn = !max_lsn + 1; cur_epoch = !max_epoch }

(* Fields first, commit word last: a crash between the two leaves a slot
   that fails its checksum. The stores go through [Memory.write]
   directly — the ring is below every instrumentation hook, so recording
   is never undo-logged and can never perturb recovery. *)
let append t ~kind a0 a1 a2 a3 =
  let lsn = t.next_lsn in
  let epoch = t.cur_epoch in
  let k = kind_code kind in
  let a = slot_addr ((lsn - 1) mod t.capacity) in
  Memory.write t.mem (a + 8) lsn;
  Memory.write t.mem (a + 16) epoch;
  Memory.write t.mem (a + 24) k;
  Memory.write t.mem (a + 32) a0;
  Memory.write t.mem (a + 40) a1;
  Memory.write t.mem (a + 48) a2;
  Memory.write t.mem (a + 56) a3;
  Memory.write t.mem a (record_sum ~lsn ~epoch ~kind:k ~a0 ~a1 ~a2 ~a3);
  t.next_lsn <- lsn + 1

(** Addresses of the words the most recent append wrote, commit word
    first — the torn-persist surface a crash exposes. Empty before the
    first append. *)
let frontier_words t =
  if t.next_lsn <= 1 then []
  else begin
    let a = slot_addr ((t.next_lsn - 2) mod t.capacity) in
    List.init record_words (fun i -> a + (i * 8))
  end

(* ---- dump artifact ---- *)

(* The on-disk artifact a campaign or fuzz finding ships: the nonzero
   words of the flight region, address-sorted — deterministic bytes for
   identical rings, loadable without the rest of the image. *)

let dump_header = "cwsp-flight-dump v1"

let dump_string mem =
  let words = ref [] in
  Memory.iter
    (fun a v -> if Layout.is_flight_addr a then words := (a, v) :: !words)
    mem;
  let words = List.sort compare !words in
  let b = Buffer.create 4096 in
  Buffer.add_string b dump_header;
  Buffer.add_char b '\n';
  List.iter
    (fun (a, v) ->
      (* negative words (legal OCaml ints) as sign-magnitude so the
         parse round-trips without overflowing [int_of_string] *)
      if v < 0 then Buffer.add_string b (Printf.sprintf "%x -%x\n" a (-v))
      else Buffer.add_string b (Printf.sprintf "%x %x\n" a v))
    words;
  Buffer.contents b

let load_dump_string s =
  match String.split_on_char '\n' s with
  | hdr :: rest when hdr = dump_header ->
    let mem = Memory.create () in
    let ok =
      List.for_all
        (fun line ->
          if line = "" then true
          else
            match String.index_opt line ' ' with
            | None -> false
            | Some sp -> (
              let a = String.sub line 0 sp in
              let v = String.sub line (sp + 1) (String.length line - sp - 1) in
              let parse s =
                if String.length s > 1 && s.[0] = '-' then
                  Option.map Int.neg
                    (int_of_string_opt
                       ("0x" ^ String.sub s 1 (String.length s - 1)))
                else int_of_string_opt ("0x" ^ s)
              in
              match (parse a, parse v) with
              | Some a, Some v when Layout.is_flight_addr a ->
                Memory.write mem a v;
                true
              | _ -> false))
        rest
    in
    if ok then Some mem else None
  | _ -> None

let load_dump path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    load_dump_string s
