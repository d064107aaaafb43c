(** Power-failure injection and the cWSP recovery protocol (Section VII);
    harness.mli describes the skeleton every crash experiment runs.

    The tracked run keeps exactly the state the cWSP hardware keeps: the
    per-region undo logs at the memory controllers ((addr, old) pairs
    tagged with the dynamic region index), the register checkpoints
    (ordinary stores to the NVM checkpoint area made by the program
    itself) and the compiler's recovery-slice table. Everything runs on
    the decoded core ([Decode]): the run to the crash point on a decode
    whose store, boundary, atomic, flush and fence hooks keep that state
    ([hooks]), the resumed runs and the golden run on the plain untraced
    core, which a tracked run decodes once. The cut picks R_o, the
    oldest unpersisted region in the RBT window, and un-persists a random
    per-MC FIFO suffix of its own stores (stores to the same location
    always target the same MC, so per-location visibility is a prefix —
    matching real persist-path FIFOs) plus R_o's checkpoint-area stores.

    The persistency model is a value the tracked run carries ([model]).
    N threads are N lanes of the one tracked run, each a region ring
    and a decoded state of the run's one schedule; two rules hold only
    with a second core: an atomic ends its lane's region at once
    ([hooks]), and the final comparison skips the checkpoint area
    ([run_and_compare]).

    Call frames *below* the recovery point are restored from the boundary
    snapshot: they model the NVM-resident stack (spilled registers and
    return addresses live in ordinary persistent memory on a real
    machine; our IR keeps them in interpreter frames). *)

open Cwsp_ir
module Obs = Cwsp_obs.Obs
module Recorder = Cwsp_flight.Recorder

let poison = 0x5F5F5F5F

(* CWSP_FLIGHT=1 turns the flight recorder on for every experiment in
   the process — the CI switch for proving recorder-on runs match the
   recorder-off goldens and perf baselines. Read once at startup. *)
let flight_env = Sys.getenv_opt "CWSP_FLIGHT" = Some "1"

(* [Fault.cls] codes as the ring records them ([Recorder.fault_name]). *)
let fault_code = function
  | Fault.Torn_persist -> 1
  | Fault.Dropped_tail -> 2
  | Fault.Log_corruption -> 3
  | Fault.Ckpt_bitflip -> 4
  | Fault.Recovery_crash -> 5

type region_record = {
  region_index : int;
  static_id : int;
    (* global boundary id that opened this region; -1 for a region that
       opens on a full register snapshot: a lane's region 0 (its entry,
       or a post-recovery resume point) and, on N lanes, the region an
       atomic opens *)
  frames : Decode.frame list;
    (* snapshot at region entry; for a boundary, the open frame's
       register contents are dead ([boundary_frames]) *)
  outputs_at_entry : int;
    (* device outputs produced before this region started: the
       region-buffered I/O (Section VIII) released once every earlier
       region persisted *)
  mutable has_sync : bool;
    (* an atomic committed inside this region. Sync primitives persist
       synchronously with their trailing checkpoints as one
       failure-atomic unit (the MC's failure-atomic logging, Fig. 10b):
       crash-wise the unit is all-or-nothing *)
}

(* Checkpoint slots are distinct words, so the word index is a perfect
   hash within the area. *)
module Slots = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash a = a lsr 3
end)

(* The persistency model a tracked run keeps beside its lanes: the
   durable state a power failure leaves behind. *)
type model =
  | Cwsp of {
      logs : Mc_logs.t;  (* per-MC per-region undo-log arrays (Section V-B2) *)
      slot_vals : int Slots.t;
        (* MC-side shadow metadata for the checkpoint area, updated
           atomically with each slot persist: slot address -> the value
           it last persisted. Its checksum is what the MC keeps; those
           are taken once per slot at the power cut ([cs_slot_sums])
           rather than once per checkpoint store *)
    }
  | Explicit of {
      (* The dynamic ground truth for the Persist_check static tier.
         Models hardware WITHOUT the cWSP persist path: a data store is
         durable only once a flush captured its line AND a later pfence
         (or sync primitive) drained it. Register checkpoints keep their
         hardware path (write-through, undo-logged per open region so a
         crash can't leave a half-written ckpt run), and an atomic is a
         failure-atomic unit that completes with its closing boundary.
         The crash is maximally adversarial and deterministic: cache
         contents AND the flushed-but-unfenced set are lost. Recovery is
         blind — resume at the newest boundary, no undo logs to roll back
         with — so the final state is right iff the compiler really did
         make every prior store durable: exactly the obligation
         Persist_check discharges statically. A mutant that drops/moves
         one flush or fence escapes here dynamically at some crash
         point. *)
      nvm : Memory.t; (* the durable image, maintained alongside the run *)
      pending : (int, int) Hashtbl.t; (* flushed, not yet fenced: addr -> value *)
      mutable pending_atomic : (int * int) option;
        (* an atomic's (addr, value) awaiting its closing boundary *)
      mutable ckpt_undo : (int * int) list; (* open region's ckpt (addr, old) *)
    }

(* One thread of a tracked run: its region ring. *)
type lane = {
  ring : region_record array;
    (* the lane's tracked regions, [head] the newest. cWSP: a fixed ring
       of window+1 slots, where the window is the RBT size (max
       concurrently-unpersisted regions); a boundary overwrites the
       oldest slot once the ring is full, so tracking costs O(1) per
       boundary. Explicit: one slot, the newest boundary *)
  mutable head : int;
  mutable tracked_n : int; (* occupied slots *)
  mutable sync_floor : int;
    (* cWSP: the lane's highest *closed* region that contained a sync
       primitive: stores prior to a committed atomic are persisted before
       it commits (Section VIII), so the lane's recovery point can never
       move at or before such a region *)
}

(* A tracked run: one lane per thread over one NVM image, one
   persistency model, one global region counter and one recorder. *)
type tracked = {
  lanes : lane array;
  mutable sched : Decode.spmd;
    (* the lanes' decoded states, thread [tid] lane [tid], and their
       round-robin cursor. Set once, after the hooked decode the states
       run: the hooks are fixed when the program is decoded, and they
       reach a lane by its thread id *)
  compiled : Cwsp_compiler.Pipeline.compiled;
  decoded : Decode.t; (* [compiled]'s program, unhooked, for the resumed runs *)
  model : model;
  mutable region_count : int; (* the global region counter: the newest id *)
  recorder : Recorder.t option;
    (* the flight ring, formatted when the run records inside the image
       the cut preserves; the boundary hook appends to it *)
}

type launch = Main | Worker of { worker : string; threads : int }

(* Fresh untraced states of [launch] on one new image. *)
let launch_states decoded = function
  | Main -> [| Decode.create ~traced:false decoded |]
  | Worker { worker; threads } ->
    (Decode.create_spmd ~traced:false decoded ~threads ~worker).sts

(* Decoded states sharing one image, round-robin at [Decode.default_quantum]
   from the first. *)
let schedule sts = { Decode.sts; quantum = Decode.default_quantum; turn = 0; used = 0 }

(* Run decoded states (sharing one image) to completion, round-robin at
   [Decode.default_quantum]; one state runs without the scheduler. *)
let run_decoded ?fuel = function
  | [| st |] -> Decode.run ?fuel st
  | sts -> Decode.run_spmd ?fuel (schedule sts)

let copy_frame (fr : Decode.frame) = { fr with regs = Array.copy fr.regs }

let current_region l = l.ring.(l.head)

(* Instructions run so far, all lanes together. *)
let steps t = Array.fold_left (fun n st -> n + Decode.steps st) 0 t.sched.sts

(* Call-stack snapshot at a boundary. The open frame's registers are
   dead there — recovery poisons them and rebuilds the live-ins from the
   region's slice — so that frame keeps only its position and shares the
   live register array (resumes copy it before poisoning). Caller frames
   are NVM-resident stack state and are copied whole. *)
let boundary_frames = function
  | top :: callers -> top :: List.map copy_frame callers
  | [] -> []

(* A lane's tracked regions, newest first (position 0 is the open
   region). *)
let tracked_regions l =
  let cap = Array.length l.ring in
  List.init l.tracked_n (fun back -> l.ring.((l.head - back + cap) mod cap))

(* Region-buffered I/O: the device output released before region [r]
   began, once every earlier region persisted; the rest is still
   buffered. Oldest first. *)
let released st (r : region_record) =
  List.filteri (fun i _ -> i < r.outputs_at_entry) (Decode.outputs st)

(* Lane [l], whose state is [st], opens the run's next region (a
   boundary's [static_id], or -1 on a full register snapshot) in its
   ring's next slot, which overwrites the oldest once the ring is full. *)
let open_region t l st static_id =
  let cap = Array.length l.ring in
  let next = (l.head + 1) mod cap in
  if l.tracked_n < cap then l.tracked_n <- l.tracked_n + 1;
  t.region_count <- t.region_count + 1;
  let frames = Decode.frames st in
  l.ring.(next) <-
    {
      region_index = t.region_count;
      static_id;
      frames =
        (if static_id < 0 then List.map copy_frame frames else boundary_frames frames);
      outputs_at_entry = List.length (Decode.outputs st);
      has_sync = false;
    };
  l.head <- next

(* The instrumentation of a tracked run, one model's hooks: the match
   runs once here, when the program is decoded, never per store or
   boundary. Each hook reaches its lane by thread id. *)
let hooks t : Decode.hooks =
  let lane st = t.lanes.(Decode.tid st) in
  match t.model with
  | Cwsp c ->
    let next_region l st static_id =
      (* once the ring is full, the oldest region falls out of the
         tracking window and is treated as persisted (non-speculative):
         the MCs reclaim its log arrays, exactly the hardware's
         deallocation protocol *)
      let cap = Array.length l.ring in
      if l.tracked_n = cap then
        Mc_logs.deallocate c.logs ~region:l.ring.((l.head + 1) mod cap).region_index;
      open_region t l st static_id
    in
    let boundary st static_id =
      let l = lane st in
      (* closing a region that contained a sync primitive seals it: the
         drain semantics of Section VIII guarantee everything up to and
         including it is persistent *)
      let cur = current_region l in
      if cur.has_sync then l.sync_floor <- cur.region_index;
      (* flight recorder: a boundary commit plus persist-path telemetry.
         The arguments cost a fold over every live log, so they are
         computed only when the run records; unrecorded runs pay one
         branch per region boundary. *)
      (match t.recorder with
      | Some r ->
        let live = Mc_logs.live_entries c.logs in
        Recorder.append r ~kind:Recorder.Boundary (Decode.steps st) static_id live
          (if cur.has_sync then 1 else 0);
        Recorder.append r ~kind:Recorder.Telemetry l.tracked_n live l.sync_floor
          (Slots.length c.slot_vals)
      | None -> ());
      next_region l st static_id
    in
    let atomic =
      if Array.length t.lanes = 1 then fun st ~addr:_ ~value:_ ~wrote:_ ->
        (current_region (lane st)).has_sync <- true
      else fun st ~addr:_ ~value:_ ~wrote:_ ->
        (* A second core may already have read what the atomic wrote
           (Section VIII), so this lane must never roll back past it:
           the atomic ends its region at once, sealed by the drain at
           sync, and the next region opens on a full register snapshot. *)
        let l = lane st in
        l.sync_floor <- (current_region l).region_index;
        next_region l st (-1)
    in
    {
      Decode.no_hooks with
      store =
        Some
          (fun st _ ~addr ~old ~value ->
            (* every speculative store is undo-logged on arrival at its
               MC, tagged with its lane's open region *)
            Mc_logs.log c.logs ~region:(current_region (lane st)).region_index ~addr
              ~old ~value;
            if Layout.is_ckpt_addr addr then Slots.replace c.slot_vals addr value);
      boundary = Some boundary;
      atomic = Some atomic;
    }
  | Explicit e ->
    let drain _ =
      Hashtbl.iter (fun addr v -> Memory.write e.nvm addr v) e.pending;
      Hashtbl.reset e.pending
    in
    {
      Decode.no_hooks with
      store =
        Some
          (fun _ _ ~addr ~old:_ ~value ->
            if Layout.is_ckpt_addr addr then begin
              (* hardware persist path of the checkpoint engine:
                 write-through, journaled until the region's boundary
                 commits the run *)
              let nold = Memory.read e.nvm addr in
              Memory.write e.nvm addr value;
              e.ckpt_undo <- (addr, nold) :: e.ckpt_undo
            end);
      flush =
        Some
          (fun st addr ->
            if not (Layout.is_ckpt_addr addr) then
              (* the writeback captures the line's current cache contents *)
              Hashtbl.replace e.pending addr (Memory.read (Decode.memory st) addr));
      fence = Some drain;
      atomic =
        Some
          (fun st ~addr ~value ~wrote ->
            (* full sync: drains the persist stream; its own write is a
               failure-atomic unit completing at the closing boundary *)
            drain st;
            if wrote && not (Layout.is_ckpt_addr addr) then
              e.pending_atomic <- Some (addr, value));
      boundary =
        Some
          (fun st id ->
            (* flight recorder: boundary commit in the explicit model,
               with the flushed-but-unfenced set as persist telemetry *)
            (match t.recorder with
            | Some r ->
              Recorder.append r ~kind:Recorder.Boundary (Decode.steps st) id
                (Hashtbl.length e.pending)
                (match e.pending_atomic with Some _ -> 1 | None -> 0)
            | None -> ());
            (match e.pending_atomic with
            | Some (a, v) -> Memory.write e.nvm a v
            | None -> ());
            e.pending_atomic <- None;
            e.ckpt_undo <- [];
            open_region t (lane st) st id);
    }

(* A tracked run of [compiled] under [mode]'s model, one lane per entry:
   thread [tid] resumes call stack [entries.(tid)] on [mem], stepping a
   decode under [hooks]. Each lane's region 0 snapshots its entry, so a
   crash before the lane's first boundary resumes there: the program's
   or the worker's entry, or the resume point of a previous recovery. *)
let create ~window ~flight ~(mode : Cwsp_compiler.Pipeline.persist_mode)
    (compiled : Cwsp_compiler.Pipeline.compiled) decoded ~mem
    (entries : Decode.frame list array) =
  (* The ring lives in the image the cut preserves. cWSP: the lanes'
     own NVM, which the cut snapshots. Explicit: the durable image, where
     each append is its own flush+fence (the commit-word ordering is the
     failure-atomicity), so the ring survives the deterministic crash
     whole. *)
  let model, slots, ring_image =
    match mode with
    | Implicit ->
      (Cwsp { logs = Mc_logs.create ~n_mcs:2; slot_vals = Slots.create 64 },
       window + 1, mem)
    | Explicit ->
      let nvm = Memory.snapshot mem in
      ( Explicit
          { nvm; pending = Hashtbl.create 64; pending_atomic = None; ckpt_undo = [] },
        1,
        nvm )
  in
  let t =
    {
      lanes =
        Array.mapi
          (fun tid frames ->
            let region0 =
              { region_index = tid; static_id = -1; frames = List.map copy_frame frames;
                outputs_at_entry = 0; has_sync = false }
            in
            { ring = Array.make slots region0; head = 0; tracked_n = 1; sync_floor = -1 })
          entries;
      sched = schedule [||];
      compiled;
      decoded;
      model;
      region_count = Array.length entries - 1;
      recorder = (if flight then Some (Recorder.format ring_image) else None);
    }
  in
  let hooked = Decode.decode ~hooks:(hooks t) compiled.prog in
  let resume tid frames = Decode.resume ~tid hooked ~mem ~frames ~outputs:[] in
  t.sched <- schedule (Array.mapi resume entries);
  t

(** Run until [crash_at] instructions have executed on all lanes
    together (or to completion), on the lanes' round-robin schedule,
    whose cursor stays in the run: stopping at a point and going on
    steps exactly as one run that never stopped. Returns [true] if the
    program halted first. *)
let run_to t crash_at =
  match Decode.run_spmd ~fuel:(crash_at - steps t) t.sched with
  | () -> true
  | exception Decode.Fuel_exhausted -> false

(* ---- crash helpers ---- *)

(* Un-persist a random per-MC FIFO suffix of one region's data stores:
   draw, MC by MC, how many of its stores persisted in program order,
   and hand every later one to [f]. [entries] come newest first per MC,
   so a suffix in program order is a prefix of each MC's list.
   Checkpoint-area stores are left to the caller. *)
let fifo_suffix rng logs (entries : Mc_logs.entry list) f =
  let mc_of = Mc_logs.mc_of logs in
  let data (e : Mc_logs.entry) = not (Layout.is_ckpt_addr e.e_addr) in
  let total = Array.make (Mc_logs.n_mcs logs) 0 in
  List.iter
    (fun e -> if data e then total.(mc_of e.e_addr) <- total.(mc_of e.e_addr) + 1)
    entries;
  let persisted =
    Array.map (fun n -> if n = 0 then 0 else Cwsp_util.Rng.int rng (n + 1)) total
  in
  let seen_from_end = Array.make (Array.length total) 0 in
  List.iter
    (fun (e : Mc_logs.entry) ->
      if data e then begin
        let mc = mc_of e.e_addr in
        let pos_from_start = total.(mc) - seen_from_end.(mc) in
        seen_from_end.(mc) <- seen_from_end.(mc) + 1;
        if pos_from_start > persisted.(mc) then f e
      end)
    entries

(* Thread [tid]'s call stack at the entry of region [r] on [mem], copied
   so a snapshot can be resumed again. A boundary's region poisons the
   open frame's registers and evaluates the boundary's recovery slice,
   which rebuilds the live-ins from the thread's checkpoint slots; a
   region with a negative static id resumes its snapshot's registers as
   they are. *)
let entry_frames ~tid (compiled : Cwsp_compiler.Pipeline.compiled) decoded ~mem
    (r : region_record) =
  let frames = List.map copy_frame r.frames in
  if r.static_id >= 0 then begin
    let fr = List.hd frames in
    Array.fill fr.regs 0 (Array.length fr.regs) poison;
    let depth = List.length r.frames - 1 in
    let slot reg = Memory.read mem (Layout.ckpt_slot ~tid ~depth reg) in
    let addr_of g =
      match Decode.global_addr decoded g with
      | Some a -> a
      | None -> failwith ("recovery slice references unknown global " ^ g)
    in
    List.iter
      (fun (reg, expr) -> fr.regs.(reg) <- Cwsp_ckpt.Slice.eval ~slot ~addr_of expr)
      compiled.slices.(r.static_id)
  end;
  frames

(* A lane to re-execute to the end. *)
type entry = {
  e_tid : int;
  e_frames : Decode.frame list; (* head = current frame *)
  e_outputs : int list; (* produced since the lane's last resume point *)
  e_released : int list; (* device output released before the crash *)
}

(* Lane [tid] resumed at region [r] on [mem], [released] already out. *)
let entry_at ~tid compiled decoded ~mem ~released (r : region_record) =
  { e_tid = tid; e_frames = entry_frames ~tid compiled decoded ~mem r;
    e_outputs = []; e_released = released }

type golden = { g_mem : Memory.t; g_outputs : int list; g_steps : int }

(* The reference finished failure-free lanes provide: their shared
   image, every lane's output in lane order, their steps together. *)
let golden_of_lanes (sts : Decode.st array) =
  {
    g_mem = Decode.memory sts.(0);
    g_outputs = List.concat_map Decode.outputs (Array.to_list sts);
    g_steps = Array.fold_left (fun n st -> n + Decode.steps st) 0 sts;
  }

(** The reference a finished failure-free run provides. *)
let golden_of_run st = golden_of_lanes [| st |]

let golden_of launch (compiled : Cwsp_compiler.Pipeline.compiled) =
  let sts = launch_states (Decode.decode compiled.prog) launch in
  run_decoded sts;
  golden_of_lanes sts

(* Run [f], which steps a resumed machine. A trap, a wild memory access
   (a poisoned or corrupted register used as a pointer) or a hang is a
   wrong outcome of recovery, not a harness failure. *)
let stepping f =
  match f () with
  | v -> Ok v
  | exception Decode.Trap msg -> Error ("recovered run trapped: " ^ msg)
  | exception Decode.Fuel_exhausted -> Error "recovered run failed to halt"
  (* [Memory]'s fault on a misaligned or negative address. Only its own
     messages are matched: an index error elsewhere is a harness bug and
     must still escape. *)
  | exception Invalid_argument msg when String.starts_with ~prefix:"Memory: " msg
    ->
    Error ("recovered run faulted: " ^ msg)

(* A resumed run as a test's probe sees it ([with_resumed_probe]). *)
type resumed = {
  rs_start : Memory.t;
  rs_lanes : entry array;
  rs_fuel : int;
  rs_sts : Decode.st array;
  rs_result : (unit, string) result;
}

let probe_key : (resumed -> unit) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_resumed_probe f k =
  let prev = Domain.DLS.get probe_key in
  Domain.DLS.set probe_key (Some f);
  Fun.protect ~finally:(fun () -> Domain.DLS.set probe_key prev) k

(* Run the resumed [lanes] on [mem] to completion, on the untraced
   decoded core, and compare against the golden run: each lane's
   released output plus its resumed run's, in lane order, must be the
   golden stream, and the final NVM image the golden image. Any failure
   to get there ([stepping]) or any NVM/IO divergence is a wrong outcome
   — the oracle, independent of all checksums — reported with its first
   difference. A hang is bounded by a generous multiple of the
   failure-free step count. The flight-recorder region is excluded: it
   is observability state, written on the crashing path only, and
   legitimately differs from the failure-free image. *)
let run_and_compare decoded golden ~mem (lanes : entry array) :
    (unit, string) result =
  let fuel = (4 * golden.g_steps) + 10_000 in
  let probe = Domain.DLS.get probe_key in
  (* the run consumes the image and the frames: a probe sees them as
     they were *)
  let start =
    match probe with
    | None -> None
    | Some _ ->
      Some
        ( Memory.snapshot mem,
          Array.map
            (fun e -> { e with e_frames = List.map copy_frame e.e_frames })
            lanes )
  in
  let sts =
    Array.map
      (fun e ->
        Decode.resume ~tid:e.e_tid decoded ~mem
          ~frames:e.e_frames
          ~outputs:e.e_outputs)
      lanes
  in
  if !Obs.on then Obs.span_begin ~cat:"recovery" "resumed_run";
  let ran = stepping (fun () -> run_decoded ~fuel sts) in
  if !Obs.on then
    Obs.span_end
      ~args:
        [ ("steps",
           float_of_int (Array.fold_left (fun n st -> n + Decode.steps st) 0 sts)) ]
      ();
  (match (probe, start) with
  | Some f, Some (rs_start, rs_lanes) ->
    f { rs_start; rs_lanes; rs_fuel = fuel; rs_sts = sts; rs_result = ran }
  | _ -> ());
  match ran with
  | Error e -> Error e
  | Ok () ->
    let lanes = Array.to_list (Array.map2 (fun e st -> (e.e_released, st)) lanes sts) in
    if List.concat_map (fun (r, st) -> r @ Decode.outputs st) lanes <> golden.g_outputs
    then
      let count f = List.fold_left (fun n l -> n + List.length (f l)) 0 lanes in
      Error
        (Printf.sprintf
           "device I/O diverged: %d released + %d regenerated vs %d golden"
           (count fst)
           (count (fun (_, st) -> Decode.outputs st))
           (List.length golden.g_outputs))
    else
      (* With a second core, recovery replays under another interleaving,
         which may leave a different checkpoint history without being
         wrong: N lanes compare the image outside the checkpoint area. *)
      let except =
        if Array.length sts = 1 then Layout.is_flight_addr
        else fun a -> Layout.is_flight_addr a || Layout.is_ckpt_addr a
      in
      if Memory.equal_except ~except golden.g_mem mem then Ok ()
      else
        match Memory.first_diff_except ~except golden.g_mem mem with
        | Some (addr, g, r) ->
          Error
            (Printf.sprintf "NVM mismatch at 0x%x: golden=%d recovered=%d" addr
               g r)
        | None -> Error "memories differ but no diff found"

(* ==================================================================== *)
(* Adversarial fault model: crashes where the persistence path itself   *)
(* is faulty (torn persists, dropped persist-buffer tails, log/ckpt     *)
(* corruption, power failure during recovery). The clean-crash paths    *)
(* above trust every surviving byte; the hardened protocol below audits *)
(* the undo logs (checksums, LSNs, count headers) and the checkpoint    *)
(* area before committing to a rollback boundary, degrading to deeper   *)
(* boundaries whose logs verify and refusing outright rather than ever  *)
(* producing a wrong final NVM image.                                   *)
(* ==================================================================== *)

(* One lane's side of a power cut: its tracked regions and where it
   resumes. *)
type lane_cut = {
  lc_tid : int;
  lc_regions : region_record list; (* newest first, as tracked *)
  lc_nominal : int; (* position of R_o, the nominal recovery point *)
  lc_released : int list; (* device outputs already released, oldest first *)
  lc_sync_floor : int;
}

(** The surviving durable state at the instant power is lost: the NVM
    image (with each lane's chosen un-persisted suffix of its R_o's
    stores removed), the MC log arrays, the checkpoint-area shadow
    checksums, the recovery intent record, and the tracking metadata
    recovery needs. Injectors damage it and recovery consumes it; only
    a crash-during-recovery sweep, which needs the untouched cut for
    each run, recovers on copies ([copy_state]). No plan reverts a
    flight-ring word and no resumed run writes one, so a consumed
    state's ring still dumps what the crash recorded. *)
type crash_state = {
  cs_mem : Memory.t;
  cs_logs : Mc_logs.t;
  cs_slot_sums : (int, int) Hashtbl.t;
  mutable cs_intent : int option; (* the hardened plan's durable rung pin *)
  cs_lanes : lane_cut array;
  cs_crash_step : int;
  cs_compiled : Cwsp_compiler.Pipeline.compiled;
  cs_decoded : Decode.t;
}

(** Cut power now and build the surviving durable state. Each lane, in
    lane order, draws its own R_o — never at or before its committed
    sync point — and the un-persisted suffix of R_o's stores. Physically
    honest about per-location persist FIFOs: R_o's un-persisted suffix
    skips addresses a younger region of the lane also stored to (a
    younger persisted store to the same location implies R_o's earlier
    store persisted first), and younger regions' speculative stores are
    left in the image — reverting them is recovery's job, not the
    crash's. *)
let cut_power rng (t : tracked) : crash_state =
  let logs, slot_vals =
    match t.model with
    | Cwsp c -> (c.logs, c.slot_vals)
    | Explicit _ -> invalid_arg "Harness.cut_power: not a cWSP run"
  in
  let mem = Memory.snapshot (Decode.memory t.sched.sts.(0)) in
  let slot_sums = Hashtbl.create (Slots.length slot_vals) in
  Slots.iter
    (fun a v -> Hashtbl.replace slot_sums a (Fault.value_sum v))
    slot_vals;
  let cut tid l =
    (* copies: the crash state is a value, and [has_sync] is mutable *)
    let regions =
      List.map (fun (r : region_record) -> { r with has_sync = r.has_sync })
        (tracked_regions l)
    in
    let eligible =
      List.length
        (List.filter
           (fun (r : region_record) -> r.region_index > l.sync_floor)
           regions)
    in
    let back = Cwsp_util.Rng.int rng (max 1 eligible) in
    let r_o = List.nth regions back in
    let r_o_entries = Mc_logs.region_entries logs ~region:r_o.region_index in
    let younger_covers = Hashtbl.create 64 in
    List.iteri
      (fun i (r : region_record) ->
        if i < back then
          List.iter
            (fun (e : Mc_logs.entry) -> Hashtbl.replace younger_covers e.e_addr ())
            (Mc_logs.region_entries logs ~region:r.region_index))
      regions;
    let unpersist (e : Mc_logs.entry) =
      if not (Hashtbl.mem younger_covers e.e_addr) then begin
        Memory.write mem e.e_addr e.e_old;
        (* slot metadata persists atomically with the slot store: an
           un-persisted checkpoint store rolls its shadow checksum back *)
        if Layout.is_ckpt_addr e.e_addr then
          Hashtbl.replace slot_sums e.e_addr (Fault.value_sum e.e_old)
      end
    in
    if r_o.has_sync then
      (* still-open sync region: the atomic + trailing checkpoints are one
         failure-atomic unit that did not complete — nothing persisted *)
      List.iter unpersist r_o_entries
    else begin
      (* random per-MC FIFO suffix of R_o's data stores un-persists, and
         R_o's checkpoint-area stores are treated as unpersisted (the
         trailing checkpoint of R_o's opening boundary had not drained) *)
      fifo_suffix rng logs r_o_entries unpersist;
      List.iter
        (fun (e : Mc_logs.entry) -> if Layout.is_ckpt_addr e.e_addr then unpersist e)
        r_o_entries
    end;
    { lc_tid = tid; lc_regions = regions; lc_nominal = back;
      lc_released = released t.sched.sts.(tid) r_o; lc_sync_floor = l.sync_floor }
  in
  let lanes = Array.mapi cut t.lanes in
  {
    cs_mem = mem;
    cs_logs = Mc_logs.copy logs;
    cs_slot_sums = slot_sums;
    cs_intent = None;
    cs_lanes = lanes;
    cs_crash_step = steps t;
    cs_compiled = t.compiled;
    cs_decoded = t.decoded;
  }

(* The hardened ladder and the fault injectors work on one lane, the
   only one: [sweep] rejects their points on N lanes. *)
let solo cs = cs.cs_lanes.(0)

(* Newest verified record per address across all of the lane's tracked
   regions; the position (index into lc_regions) tells which side of a
   rollback boundary last wrote the address. Per address the order is
   exact: a location always maps to one MC, whose per-region lists are
   newest first, and list position is newest first too. *)
let newest_per_addr cs =
  let tbl = Hashtbl.create 64 in
  List.iteri
    (fun idx (r : region_record) ->
      List.iter
        (fun (e : Mc_logs.entry) ->
          if
            Mc_logs.entry_ok ~region:r.region_index e
            && not (Hashtbl.mem tbl e.e_addr)
          then Hashtbl.add tbl e.e_addr (idx, e))
        (Mc_logs.region_entries cs.cs_logs ~region:r.region_index))
    (solo cs).lc_regions;
  tbl

(* Checkpoint-slot addresses a region's recovery slice reads. *)
let slice_slot_addrs cs (r : region_record) =
  if r.static_id < 0 then []
  else
    cs.cs_compiled.slices.(r.static_id)
    |> List.concat_map (fun (_, e) -> Cwsp_ckpt.Slice.slot_refs e)
    |> List.sort_uniq compare
    |> List.map (fun reg ->
           Layout.ckpt_slot ~tid:(solo cs).lc_tid ~depth:(List.length r.frames - 1) reg)

(* ---- fault injection into a crash state ---- *)

let inject rng (cls : Fault.cls) cs : string option =
  let { lc_regions; lc_nominal; _ } = solo cs in
  let sorted_candidates l =
    Array.of_list (List.sort (fun (a, _) (b, _) -> compare a b) l)
  in
  match cls with
  | Fault.Recovery_crash -> None (* realized as the mid-recovery sweep *)
  | Fault.Torn_persist ->
      (* tear the NVM word of a store that did persist; prefer one whose
         newest write is on the persisted side of the nominal boundary —
         tears inside the revert set are repaired without ever being
         noticed, which is legal but uninteresting *)
      let m = newest_per_addr cs in
      let deep, any =
        Hashtbl.fold
          (fun addr (idx, (e : Mc_logs.entry)) (deep, any) ->
            (* a store that changed nothing cannot tear observably *)
            if Memory.read cs.cs_mem addr = e.e_old then (deep, any)
            else
              let c = (addr, e) in
              ((if idx > lc_nominal then c :: deep else deep), c :: any))
          m ([], [])
      in
      let pool = if deep <> [] then deep else any in
      if pool = [] then None
      else begin
        let arr = sorted_candidates pool in
        let addr, e = arr.(Cwsp_util.Rng.int rng (Array.length arr)) in
        let old = e.e_old in
        Memory.mutate cs.cs_mem addr (fun v -> Fault.tear rng ~value:v ~old);
        Some (Printf.sprintf "torn persist at 0x%x" addr)
      end
  | Fault.Dropped_tail ->
      (* one MC's persist buffer silently dropped its newest data writes
         for a supposedly-persisted region: the undo-log records are
         intact (logging happens on the arrival path), the data never
         reached NVM. Only newest-per-address stores are droppable — a
         younger persisted store to the same location would contradict
         the per-location FIFO. *)
      let m = newest_per_addr cs in
      let candidates =
        Hashtbl.fold
          (fun addr (idx, (e : Mc_logs.entry)) acc ->
            if idx > lc_nominal then (addr, e) :: acc else acc)
          m []
      in
      if candidates = [] then None
      else begin
        let arr = sorted_candidates candidates in
        let k = 1 + Cwsp_util.Rng.int rng (min 3 (Array.length arr)) in
        let dropped = ref [] in
        for _ = 1 to k do
          let addr, (e : Mc_logs.entry) =
            arr.(Cwsp_util.Rng.int rng (Array.length arr))
          in
          if not (List.mem addr !dropped) then begin
            Memory.write cs.cs_mem addr e.e_old;
            if Layout.is_ckpt_addr addr then
              Hashtbl.replace cs.cs_slot_sums addr (Fault.value_sum e.e_old);
            dropped := addr :: !dropped
          end
        done;
        Some
          (Printf.sprintf "dropped persist-buffer writes at [%s]"
             (String.concat "; "
                (List.map (Printf.sprintf "0x%x") !dropped)))
      end
  | Fault.Log_corruption ->
      Mc_logs.inject_corrupt cs.cs_logs rng
        ~regions:(List.map (fun (r : region_record) -> r.region_index) lc_regions)
  | Fault.Ckpt_bitflip ->
      (* bit rot in a checkpoint slot (the slot's shadow checksum still
         describes the intended value). A flip in a slot the nominal
         revert set covers is healed by the replay before the slice
         reads it — legal but unobservable — so prefer slots the slice
         reads whose checkpoint is OLDER than the rollback boundary
         (pruning makes slices read ancient slots), then any uncovered
         written slot, then anything the slice reads. *)
      let r_o = List.nth lc_regions lc_nominal in
      let m = newest_per_addr cs in
      let covered a =
        match Hashtbl.find_opt m a with
        | Some (idx, _) -> idx <= lc_nominal
        | None -> false
      in
      let slice_slots = slice_slot_addrs cs r_o in
      let written =
        Hashtbl.fold (fun a _ acc -> a :: acc) cs.cs_slot_sums []
        |> List.sort compare
      in
      let pool1 = List.filter (fun a -> not (covered a)) slice_slots in
      let pool2 = List.filter (fun a -> not (covered a)) written in
      let slots =
        if pool1 <> [] then pool1
        else if pool2 <> [] then pool2
        else slice_slots
      in
      if slots = [] then None
      else begin
        let a = List.nth slots (Cwsp_util.Rng.int rng (List.length slots)) in
        Memory.mutate cs.cs_mem a (Fault.flip_bit rng);
        Some (Printf.sprintf "bit flip in checkpoint slot 0x%x" a)
      end

(* ---- hardened recovery: audit, degradation ladder, staged plan ---- *)

type rung_check = {
  rc_usable : bool; (* this rung's rollback can be trusted *)
  rc_fatal : bool; (* no deeper rung can help: stop the ladder *)
  rc_notes : string list; (* detection messages *)
  rc_skip : Mc_logs.entry list; (* corrupt records proven immaterial *)
}

(** Audit rollback boundary [back] (position in the lane's [lc_regions]).

    - Revert-set regions (positions <= back) must have verifiable logs:
      count headers match, LSNs contiguous, record checksums good. A
      corrupt record is tolerated only if an OLDER verified record
      covers the same address — reverse-chronological replay overwrites
      whatever the corrupt record would have written, so its loss is
      immaterial. (Its address field may itself be the corrupted field;
      under the single-fault adversary the shadow lookup then misses and
      we refuse rather than trust it.) Structural damage or an
      unshadowed corrupt record is fatal: records are missing or
      untrustworthy, so the region's write set is unknowable and no
      deeper rung restores it either.
    - Persisted-side regions (positions > back) are audited for
      *persistence*: the newest verified record per address carries the
      checksum of the value NVM must hold. A mismatch (torn persist,
      dropped persist-buffer write) fails the rung but a deeper rung
      that pulls the damaged region into the revert set repairs it.
    - The rung's slice inputs are audited: every checkpoint slot the
      slice reads must either be rewritten by the revert replay (a
      revert-set record covers it) or match its shadow checksum.
    - Rolling back must not cross a committed sync point nor re-release
      device I/O; both bound the ladder below. *)
let check_rung cs ~back =
  let notes = ref [] and fatal = ref false and soft = ref false in
  let skip = ref [] in
  let note msg = notes := msg :: !notes in
  let lc = solo cs in
  let rung = List.nth lc.lc_regions back in
  if rung.region_index <= lc.lc_sync_floor then begin
    fatal := true;
    note "rollback would cross a committed sync point"
  end;
  if rung.outputs_at_entry <> List.length lc.lc_released then begin
    fatal := true;
    note "rollback would re-release device I/O"
  end;
  let n_regions = List.length lc.lc_regions in
  let region_arr = Array.of_list lc.lc_regions in
  let entries_at i =
    Mc_logs.region_entries cs.cs_logs ~region:region_arr.(i).region_index
  in
  (* audit the revert set *)
  for i = 0 to min back (n_regions - 1) do
    let rid = region_arr.(i).region_index in
    let a = Mc_logs.audit_region cs.cs_logs ~region:rid in
    List.iter
      (fun msg ->
        fatal := true;
        note ("undo log unusable: " ^ msg))
      a.au_structural;
    List.iter
      (fun (bad : Mc_logs.entry) ->
        let shadowed =
          let found = ref false in
          for j = i to back do
            if not !found then
              List.iter
                (fun (e : Mc_logs.entry) ->
                  if
                    e != bad
                    && Mc_logs.entry_ok ~region:region_arr.(j).region_index e
                    && e.e_addr = bad.e_addr
                    && (j > i || e.e_lsn < bad.e_lsn)
                  then found := true)
                (entries_at j)
          done;
          !found
        in
        if shadowed then begin
          skip := bad :: !skip;
          note
            (Printf.sprintf
               "corrupt log record in region %d tolerated (older record \
                covers 0x%x)"
               rid bad.e_addr)
        end
        else begin
          fatal := true;
          note
            (Printf.sprintf "unshadowed corrupt log record in region %d" rid)
        end)
      a.au_bad
  done;
  (* audit persistence of the persisted side *)
  let m = newest_per_addr cs in
  let mismatches = ref [] in
  Hashtbl.iter
    (fun addr (idx, (e : Mc_logs.entry)) ->
      if idx > back && Fault.value_sum (Memory.read cs.cs_mem addr) <> e.e_new_sum
      then mismatches := (addr, idx) :: !mismatches)
    m;
  List.iter
    (fun (addr, idx) ->
      soft := true;
      note
        (Printf.sprintf
           "persisted store at 0x%x (region %d) is not in NVM" addr
           region_arr.(idx).region_index))
    (List.sort compare !mismatches);
  (* audit the checkpoint area — every slot, not just the ones this
     rung's slice reads: a rotted slot that no surviving record covers
     cannot be healed by ANY rung (its true value is unknowable, the
     metadata only stores a checksum), so it must keep failing rungs
     until the ladder refuses rather than commit an image with a wrong
     word in it *)
  let covered a =
    match Hashtbl.find_opt m a with Some (idx, _) -> idx <= back | None -> false
  in
  let slot_alarms = ref [] in
  Hashtbl.iter
    (fun a expect ->
      if
        (not (covered a))
        && Fault.value_sum (Memory.read cs.cs_mem a) <> expect
      then slot_alarms := a :: !slot_alarms)
    cs.cs_slot_sums;
  (* slice inputs the program never stored to read as zero *)
  List.iter
    (fun a ->
      if
        (not (Hashtbl.mem cs.cs_slot_sums a))
        && (not (covered a))
        && Memory.read cs.cs_mem a <> 0
      then slot_alarms := a :: !slot_alarms)
    (slice_slot_addrs cs rung);
  List.iter
    (fun a ->
      soft := true;
      note (Printf.sprintf "checkpoint slot 0x%x fails its checksum" a))
    (List.sort_uniq compare !slot_alarms);
  {
    rc_usable = (not !fatal) && not !soft;
    rc_fatal = !fatal;
    rc_notes = List.rev !notes;
    rc_skip = !skip;
  }

(* The recovery runtime's durable actions, as an explicit instruction
   sequence so a second power failure can be injected after ANY of them.
   Hardened ordering: a durable intent record pins the chosen rung
   first, every revert (an absolute write — idempotent) runs next, the
   logs are truncated only once all reverts are durable, and the slice
   evaluates last into volatile registers. Replaying the whole plan
   after a mid-recovery crash is therefore a no-op-or-completion, never
   a corruption. *)
type recovery_step =
  | S_intent of int (* durably pin the chosen rung's region index *)
  | S_revert of int * int (* absolute write: addr, rung-entry value *)
  | S_truncate (* drop all MC logs (and headers) *)
  | S_slice of int * Cwsp_ckpt.Slice.expr (* restore one live-in register *)

(* A copy of [cs] that recovery can consume, leaving [cs] untouched. *)
let copy_state cs =
  {
    cs with
    cs_mem = Memory.snapshot cs.cs_mem;
    cs_logs = Mc_logs.copy cs.cs_logs;
    cs_slot_sums = Hashtbl.copy cs.cs_slot_sums;
  }

let exec_step cs = function
  | S_intent r -> cs.cs_intent <- Some r
  | S_revert (addr, v) ->
      Memory.write cs.cs_mem addr v;
      (* recovery's writes go through the MCs like any store: slot
         metadata follows the slot *)
      if Layout.is_ckpt_addr addr then
        Hashtbl.replace cs.cs_slot_sums addr (Fault.value_sum v)
  | S_truncate -> Mc_logs.reset cs.cs_logs
  | S_slice _ -> () (* registers are volatile; materialized at resume *)

let run_plan cs plan = List.iter (exec_step cs) plan

(* Undo-log reverts of [regions] (ids), the records [keep] selects, in
   replay order: newest region first and newest record first. *)
let revert_steps ~logs regions keep =
  Mc_logs.undo_order logs ~regions
  |> List.filter_map (fun (r, (e : Mc_logs.entry)) ->
         if keep r e then Some (S_revert (e.e_addr, e.e_old)) else None)

(* The ids of a lane's regions at positions <= [back]. *)
let regions_upto (l : lane_cut) back =
  List.filteri (fun i _ -> i <= back) l.lc_regions
  |> List.map (fun (r : region_record) -> r.region_index)

(* The rung's recovery slice, one step per restored register. *)
let slice_steps cs (rung : region_record) =
  if rung.static_id < 0 then []
  else
    List.map (fun (r, e) -> S_slice (r, e)) cs.cs_compiled.slices.(rung.static_id)

(** Hardened full-revert plan for rung [back]: replay EVERY record of
    every region at positions <= back (minus proven-immaterial corrupt
    ones), newest region first, newest record first — after which every
    logged address holds its exact rung-entry value; idempotent
    re-execution regenerates the rest. *)
let build_plan cs ~back ~skip =
  let lc = solo cs in
  let rung = List.nth lc.lc_regions back in
  (S_intent rung.region_index
   :: revert_steps ~logs:cs.cs_logs (regions_upto lc back) (fun _ e ->
          not (List.memq e skip)))
  @ (S_truncate :: slice_steps cs rung)

(** Blind (legacy-ordering) plan: trust every record, revert every
    lane's younger regions plus its R_o's checkpoint stores, in
    descending global region id, and — the vulnerability the hardened
    ordering fixes — free the log space while loading the records into
    volatile buffers, BEFORE the reverts are applied. Built from [cs]'s
    logs as they are, so a restart after a mid-recovery crash sees
    whatever log state survived. *)
let blind_plan cs =
  let lanes = Array.to_list cs.cs_lanes in
  let r_o (l : lane_cut) = List.nth l.lc_regions l.lc_nominal in
  let r_os = List.map (fun l -> (r_o l).region_index) lanes in
  (S_truncate
   :: revert_steps ~logs:cs.cs_logs
        (List.concat_map (fun l -> regions_upto l l.lc_nominal) lanes)
        (fun r (e : Mc_logs.entry) ->
          (not (List.mem r r_os)) || Layout.is_ckpt_addr e.e_addr))
  @ List.concat_map (fun l -> slice_steps cs (r_o l)) lanes

(* Resume every lane at its rung, position [backs.(i)] of lane [i], on
   [cs]'s memory: the lanes [run_and_compare] runs. *)
let resume_lanes cs backs =
  Array.mapi
    (fun i (l : lane_cut) ->
      entry_at ~tid:l.lc_tid cs.cs_compiled cs.cs_decoded ~mem:cs.cs_mem
        ~released:l.lc_released (List.nth l.lc_regions backs.(i)))
    cs.cs_lanes

type fault_outcome = Recovered | Degraded | Refused

type fault_report = {
  fr_crash_step : int;
  fr_nominal_region : int; (* dynamic index of the nominal recovery point *)
  fr_rung_region : int; (* region recovery actually used; -1 if refused *)
  fr_outcome : fault_outcome;
  fr_injected : string option; (* what the adversary did, if anything bit *)
  fr_detections : string list; (* what the audits saw *)
  fr_state_ok : bool; (* final state matches golden (vacuous for Refused) *)
  fr_sweep_points : int; (* mid-recovery crash sites exercised *)
  fr_sweep_slice_points : int; (* ... of which were slice instructions *)
  fr_sweep_failures : int; (* sweep runs with a wrong final state *)
  fr_rollback : int; (* regions rolled back past to reach the rung; -1 if refused *)
  fr_restored : int; (* live-in registers the rung's recovery slice restored *)
  fr_flight : string option;
    (* flight-recorder dump (text artifact) when recording was enabled:
       the ring's surviving words after the crash, the recovery-side
       events appended to them, ready for [cwsp_postmortem] *)
}

(* Mid-recovery crash sites: every non-revert step (intent, truncate and
   every recovery-slice instruction), plus an evenly-strided sample of
   the revert writes (they are all the same instruction shape; sweeping
   thousands of them per cell buys nothing). Index k means "power fails
   after plan step k has executed". *)
let sweep_cuts plan ~max_reverts =
  let reverts = ref [] and others = ref [] in
  List.iteri
    (fun i s ->
      match s with
      | S_revert _ -> reverts := i :: !reverts
      | _ -> others := i :: !others)
    plan;
  let reverts = Array.of_list (List.rev !reverts) in
  let n = Array.length reverts in
  let sampled =
    if n <= max_reverts then Array.to_list reverts
    else List.init max_reverts (fun i -> reverts.(i * n / max_reverts))
  in
  List.sort compare (sampled @ !others)

let slice_cut_count plan cuts =
  let arr = Array.of_list plan in
  List.length
    (List.filter (fun k -> match arr.(k) with S_slice _ -> true | _ -> false) cuts)

let c_sweep_reused = Obs.Counter.make "recovery.sweep.reused"
let c_sweep_rerun = Obs.Counter.make "recovery.sweep.rerun"

(** One recovery against a crash state. [restart] receives the
    post-second-crash state and must bring recovery to completion the
    way the protocol under test would. Returns the crash-free recovery's
    comparison and the number of sweep runs that ended wrong. When
    [sweep] is empty only the crash-free recovery runs, on [cs] itself;
    otherwise each run recovers on its own copy of the untouched [cs].

    Sweep resumes are memoized on the recovered image: [resume_lanes] and
    [run_and_compare] read nothing of a state's durable parts but its
    memory, so a sweep state whose image equals the clean recovery's
    (flight region included) would replay the clean run step for step —
    it takes the clean verdict instead of re-running it. *)
let execute_recovery cs golden ~backs ~plan ~restart ~sweep =
  let verdict s =
    run_and_compare s.cs_decoded golden ~mem:s.cs_mem (resume_lanes s backs)
  in
  let clean = if sweep = [] then cs else copy_state cs in
  run_plan clean plan;
  (* the resumed run mutates the image, so keep the recovered one *)
  let clean_image =
    if sweep = [] then None else Some (Memory.snapshot clean.cs_mem)
  in
  let clean_verdict = verdict clean in
  let once k =
    let s = copy_state cs in
    List.iteri (fun i step -> if i <= k then exec_step s step) plan;
    (* power failed; volatile state (loaded plan, registers) is gone *)
    restart s;
    match clean_image with
    | Some img when Memory.equal img s.cs_mem ->
      Obs.Counter.incr c_sweep_reused;
      Result.is_ok clean_verdict
    | _ ->
      Obs.Counter.incr c_sweep_rerun;
      Result.is_ok (verdict s)
  in
  (clean_verdict, List.length (List.filter (fun k -> not (once k)) sweep))

(* One point of a crash sweep: power fails once [cp_at] instructions
   have run; [cp_seed] seeds the cut and the injection; recovery runs
   the hardened ladder or the blind plan against [cp_fault]. *)
type point = {
  cp_at : int;
  cp_seed : int;
  cp_hardened : bool;
  cp_fault : Fault.cls option;
}

let clean_point ~seed ~crash_at =
  { cp_at = crash_at; cp_seed = seed; cp_hardened = false; cp_fault = None }

type outcome = (fault_report * (unit, string) result, string) result

(* A clean experiment's verdict: the report if the crash-free recovery
   compared equal, else the first difference. *)
let require_clean : outcome -> (fault_report, string) result = function
  | Ok (r, Ok ()) -> Ok r
  | Ok (_, Error e) | Error e -> Error e

(* The recovery side of the flight ring at a crash: re-attach the ring
   surviving in [image] (cursor rebuilt by slot scan) and open a new
   crash epoch. Returns its append, a no-op when the run does not
   record. *)
let crash_epoch t image =
  match if t.recorder <> None then Recorder.attach image else None with
  | Some r ->
    Recorder.bump_epoch r;
    fun kind a b c d -> Recorder.append r ~kind a b c d
  | None -> fun _ _ _ _ _ -> ()

(* The recovery half of a crash experiment, on the tracked run [t]
   standing at the crash point. Returns the report and the crash-free
   recovery's comparison, whose diagnostic (naming the crash step and
   the recovery point) the clean-crash experiments report. [t] is only
   read — the image is a snapshot, the logs and region records are
   copies, and the one thing the crash shares, the open frame's
   registers, every resume copies before poisoning — so the same run
   can go on to the next point.

   Explicit: power is lost, so only the durable image survives, with
   the open region's checkpoint run rolled back; blindly resume at the
   newest boundary via its recovery slice and compare. cWSP: cut power,
   inject the point's fault, recover blind or hardened, resume and
   compare. *)
let crash_point ~golden t p =
  let flight = t.recorder <> None in
  match t.model with
  | Explicit e ->
    let l = t.lanes.(0) and st = t.sched.sts.(0) in
    let crash_step = Decode.steps st in
    (* newest-first replay of the open region's ckpt undo restores the
       slots as of the newest boundary *)
    let image = Memory.snapshot e.nvm in
    List.iter (fun (addr, old) -> Memory.write image addr old) e.ckpt_undo;
    let r = current_region l in
    let recovered =
      entry_at ~tid:0 t.compiled t.decoded ~mem:image ~released:(released st r) r
    in
    let boundary, restored =
      if r.static_id < 0 then (0, 0)
      else (r.static_id, List.length t.compiled.slices.(r.static_id))
    in
    (* the crash record and the blind-resume decision *)
    let rapp = crash_epoch t image in
    rapp Recorder.Crash crash_step boundary 0 0;
    rapp Recorder.Resume boundary restored 0 0;
    let dump = if flight then Some (Recorder.dump_string image) else None in
    let verdict =
      Result.map_error
        (fun msg ->
          Printf.sprintf "explicit-mode %s (crash@%d, boundary %d)" msg crash_step
            boundary)
        (run_and_compare t.decoded golden ~mem:image [| recovered |])
    in
    ( {
        fr_crash_step = crash_step;
        fr_nominal_region = boundary;
        fr_rung_region = boundary;
        fr_outcome = Recovered;
        fr_injected = None;
        fr_detections = [];
        fr_state_ok = Result.is_ok verdict;
        fr_sweep_points = 0;
        fr_sweep_slice_points = 0;
        fr_sweep_failures = 0;
        fr_rollback = 0;
        fr_restored = restored;
        fr_flight = dump;
      },
      verdict )
  | Cwsp _ ->
    let hardened = p.cp_hardened and fault = p.cp_fault in
    let rng = Cwsp_util.Rng.create p.cp_seed in
    let cs = cut_power rng t in
    (* the ring is ordinary NVM: the in-flight append can tear at the
       crash, leaving a frontier slot that fails its checksum *)
    (match t.recorder with
    | Some fr ->
      let frng = Cwsp_util.Rng.stream (Cwsp_util.Rng.create p.cp_seed) 0x666c74 in
      if Cwsp_util.Rng.bool frng then (
        match Recorder.frontier_words fr with
        | [] -> ()
        | ws ->
          let a = List.nth ws (Cwsp_util.Rng.int frng (List.length ws)) in
          Memory.mutate cs.cs_mem a (fun v -> Fault.tear frng ~value:v ~old:0))
    | None -> ());
    let injected =
      match fault with None -> None | Some cls -> inject rng cls cs
    in
    (* the oldest region any lane resumes at, each lane at position
       [backs.(i)] *)
    let rung_region backs =
      Array.fold_left min max_int
        (Array.mapi
           (fun i (l : lane_cut) -> (List.nth l.lc_regions backs.(i)).region_index)
           cs.cs_lanes)
    in
    let nominal = Array.map (fun (l : lane_cut) -> l.lc_nominal) cs.cs_lanes in
    let nominal_region = rung_region nominal in
    let want_sweep = fault = Some Fault.Recovery_crash in
    (* log what the adversary did and what the ladder decides *)
    let rapp = crash_epoch t cs.cs_mem in
    rapp Recorder.Crash cs.cs_crash_step nominal_region
      (Mc_logs.n_mcs cs.cs_logs) 0;
    (match fault with
    | Some cls when injected <> None || cls = Fault.Recovery_crash ->
      rapp Recorder.Inject (fault_code cls) 0 0 0
    | _ -> ());
    let count p plan = List.length (List.filter p plan) in
    let is_slice = function S_slice _ -> true | _ -> false in
    let rollback backs = Array.fold_left ( + ) 0 backs in
    (* [backs] are the rungs recovery used, [None] when it refused *)
    let report ~backs ~outcome ~detections ~verdict ~sweep ~plan ~failures =
      ( {
          fr_crash_step = cs.cs_crash_step;
          fr_nominal_region = nominal_region;
          fr_rung_region = Option.fold ~none:(-1) ~some:rung_region backs;
          fr_outcome = outcome;
          fr_injected =
            (if want_sweep then Some "power failure during recovery (sweep)"
             else injected);
          fr_detections = detections;
          fr_state_ok = Result.is_ok verdict && failures = 0;
          fr_sweep_points = List.length sweep;
          fr_sweep_slice_points = slice_cut_count plan sweep;
          fr_sweep_failures = failures;
          fr_rollback = Option.fold ~none:(-1) ~some:rollback backs;
          fr_restored = count is_slice plan;
          fr_flight =
            (if flight then Some (Recorder.dump_string cs.cs_mem) else None);
        },
        Result.map_error
          (fun e ->
            Printf.sprintf "%s (crash@%d, region %d)" e cs.cs_crash_step
              nominal_region)
          verdict )
    in
    let refuse ~back detections =
      rapp Recorder.Decision 2 back (List.length detections) 1;
      report ~backs:None ~outcome:Refused ~detections ~verdict:(Ok ()) ~sweep:[]
        ~plan:[] ~failures:0
    in
    (* run [plan] to the rungs [backs] (swept by mid-recovery power
       failures, each followed by [restart]), resume, compare and
       record *)
    let recover ~backs ~outcome ~detections ~plan ~restart =
      let sweep = if want_sweep then sweep_cuts plan ~max_reverts:8 else [] in
      (* mid-recovery power failures re-attach the ring of the sweep
         state's image and open yet another epoch before replaying *)
      let restart s =
        crash_epoch t s.cs_mem Recorder.Restart 0 0 0 0;
        restart s
      in
      let verdict, failures =
        execute_recovery cs golden ~backs ~plan ~restart ~sweep
      in
      rapp Recorder.Decision
        (if outcome = Recovered then 0 else 1)
        (rollback backs) (List.length detections)
        (if Result.is_ok verdict && failures = 0 then 1 else 0);
      let slices, steps =
        if hardened then
          ( count is_slice plan,
            count (function S_revert _ -> true | _ -> false) plan )
        else (0, List.length plan)
      in
      rapp Recorder.Resume (rung_region backs) slices steps 0;
      report ~backs:(Some backs) ~outcome ~detections ~verdict ~sweep ~plan
        ~failures
    in
    if not hardened then
      (* blind protocol: trust every surviving byte. A restart re-reads
         whatever logs survived — after the premature truncation,
         usually nothing. *)
      recover ~backs:nominal ~outcome:Recovered ~detections:[]
        ~plan:(blind_plan cs)
        ~restart:(fun s -> run_plan s (blind_plan s))
    else begin
      (* hardened protocol: audit, degrade, or refuse *)
      let lc = solo cs in
      let n = List.length lc.lc_regions in
      let rec ladder back detections =
        if back >= n then
          refuse ~back:n (detections @ [ "no verifiable rollback boundary left" ])
        else begin
          let rc = check_rung cs ~back in
          rapp Recorder.Rung back
            (if rc.rc_usable then 1 else 0)
            (if rc.rc_fatal then 1 else 0)
            (List.length rc.rc_skip);
          let detections = detections @ rc.rc_notes in
          if rc.rc_fatal then refuse ~back detections
          else if not rc.rc_usable then ladder (back + 1) detections
          else begin
            let plan = build_plan cs ~back ~skip:rc.rc_skip in
            (* the durable intent record makes the plan idempotent: no
               intent yet -> recovery never started, run it all; intent
               + live logs -> reverts are absolute writes, replay them
               and truncate; intent + empty logs -> all durable work is
               done, only the volatile slice remains *)
            let restart s =
              match s.cs_intent with
              | None -> run_plan s plan
              | Some _ ->
                if Mc_logs.live_entries s.cs_logs > 0 then
                  List.iter
                    (function
                      | (S_revert _ | S_truncate) as step -> exec_step s step
                      | _ -> ())
                    plan
            in
            recover ~backs:[| back |]
              ~outcome:(if back = lc.lc_nominal then Recovered else Degraded)
              ~detections ~plan ~restart
          end
        end
      in
      ladder lc.lc_nominal []
    end

let sweep ?(window = 16) ?(flight = false) ~mode ~launch ~golden
    (compiled : Cwsp_compiler.Pipeline.compiled) points : outcome list =
  let lanes = match launch with Main -> 1 | Worker { threads; _ } -> threads in
  if List.exists (fun p -> p.cp_hardened || p.cp_fault <> None) points then begin
    if mode = Cwsp_compiler.Pipeline.Explicit then
      invalid_arg "Harness.sweep: no hardened or faulted point in the explicit model";
    if lanes > 1 then
      invalid_arg "Harness.sweep: no hardened or faulted point on more than one lane"
  end;
  if mode = Explicit && lanes > 1 then
    invalid_arg "Harness.sweep: the explicit model runs on one lane";
  Obs.time ~cat:"recovery"
    ~args:[ ("points", float_of_int (List.length points)) ]
    "sweep"
    (fun () ->
      if points = [] then []
      else begin
        (* The recorder ring is formatted once, inside the image the cut
           preserves, and written by the run's boundary hook; its writes
           bypass the instrumentation hooks (never undo-logged) and
           nothing in recovery reads it, so enabling it cannot change any
           outcome. Its rng draws come from a dedicated stream so the main
           rng's draw sequence is byte-identical with recording on or
           off. Each point dumps the ring as its own crash left it, so a
           dump does not depend on the other points of the sweep. *)
        let t =
          let decoded = Decode.decode compiled.prog in
          let sts = launch_states decoded launch in
          create ~window ~flight:(flight || flight_env) ~mode compiled decoded
            ~mem:(Decode.memory sts.(0)) (Array.map Decode.frames sts)
        in
        (* the one run advances through the points in ascending
           crash-step order (stable); results in input order *)
        let halted = Error "program halted before the crash point" in
        let results = Array.make (List.length points) halted in
        List.mapi (fun i p -> (i, p)) points
        |> List.stable_sort (fun (_, a) (_, b) -> compare a.cp_at b.cp_at)
        |> List.iter (fun (i, p) ->
               if not (run_to t p.cp_at) then
                 results.(i) <- Ok (crash_point ~golden t p));
        Array.to_list results
      end)

(* The one-point [sweep] against [golden], by default the binary's own
   failure-free run. *)
let one_point ?window ?flight ~mode ?golden compiled p =
  let golden = match golden with Some g -> g | None -> golden_of Main compiled in
  match sweep ?window ?flight ~mode ~launch:Main ~golden compiled [ p ] with
  | [ r ] -> r
  | _ -> assert false

let validate_fault ?window ?golden ?flight ~hardened ?fault ~seed ~crash_at
    (compiled : Cwsp_compiler.Pipeline.compiled) :
    (fault_report, string) result =
  Result.map fst
    (one_point ?window ?flight ~mode:Implicit ?golden compiled
       { cp_at = crash_at; cp_seed = seed; cp_hardened = hardened; cp_fault = fault })

let validate ?window ~seed ~crash_at
    (compiled : Cwsp_compiler.Pipeline.compiled) : (fault_report, string) result
    =
  require_clean
    (one_point ?window ~mode:Implicit compiled (clean_point ~seed ~crash_at))

let validate_chain ?(window = 16) ~seed ~crash_points
    (compiled : Cwsp_compiler.Pipeline.compiled) : (int, string) result =
  let rng = Cwsp_util.Rng.create seed in
  let golden = golden_of Main compiled in
  let decoded = Decode.decode compiled.prog in
  let track ~mem frames =
    create ~window ~flight:false ~mode:Implicit compiled decoded ~mem [| frames |]
  in
  let rec go t crash_points released crashes =
    let next =
      match crash_points with
      | [] -> Ok None
      | c :: rest ->
        stepping (fun () -> if run_to t c then None else Some rest)
    in
    match next with
    | Ok (Some rest) ->
      let cs = cut_power rng t in
      run_plan cs (blind_plan cs);
      let lc = solo cs in
      let r = List.nth lc.lc_regions lc.lc_nominal in
      (* the resume is tracked again, so it runs hooked *)
      go
        (track ~mem:cs.cs_mem (entry_frames ~tid:0 compiled decoded ~mem:cs.cs_mem r))
        rest (released @ lc.lc_released) (crashes + 1)
    | verdict -> (
      (* no more failures, or the program halted before the next one: the
         rest of the run, untracked, is the resumed run to compare *)
      let st = t.sched.sts.(0) in
      match
        Result.bind verdict (fun _ ->
            run_and_compare decoded golden ~mem:(Decode.memory st)
              [| { e_tid = 0; e_frames = Decode.frames st;
                   e_outputs = Decode.outputs st; e_released = released } |])
      with
      | Ok () -> Ok crashes
      | Error e -> Error (Printf.sprintf "%s (after %d crashes)" e crashes))
  in
  let st = Decode.create ~traced:false decoded in
  go (track ~mem:(Decode.memory st) (Decode.frames st)) crash_points [] 0

let validate_explicit ?flight ~crash_at
    (compiled : Cwsp_compiler.Pipeline.compiled) : (fault_report, string) result
    =
  require_clean
    (one_point ?flight ~mode:Explicit compiled (clean_point ~seed:0 ~crash_at))
