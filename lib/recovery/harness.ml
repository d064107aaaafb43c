(** Power-failure injection and the cWSP recovery protocol (Section VII) —
    the validation the paper explicitly leaves as future work ("No Power
    Failure Recovery Test", Section VIII).

    The harness executes a compiled program while maintaining exactly the
    state the cWSP hardware keeps:

    - per-region undo logs at the memory controllers (here: (addr, old)
      pairs tagged with the dynamic region index);
    - the register checkpoints, which are ordinary stores to the NVM
      checkpoint area made by the program itself;
    - the recovery-slice table produced by the compiler.

    Every crash experiment runs through one skeleton: run to the crash
    point, [cut_power], optionally [inject] a persistence-path fault,
    execute a recovery plan, [resume_at] the chosen region and
    [run_and_compare]. The cut picks the oldest unpersisted region R_o
    within the RBT window and un-persists a random per-MC FIFO suffix of
    R_o's own stores (stores to the same location always target the
    same MC, so per-location visibility is a prefix — matching real
    persist-path FIFOs) plus R_o's checkpoint-area stores. The blind plan
    then reverts the younger regions' speculative NVM updates with the
    undo logs; the hardened plan audits first ([check_rung]). The resume
    evaluates the region's recovery slice to restore its live-in
    registers (every other register is poisoned to catch liveness bugs)
    and runs from the region's entry. Crash consistency holds iff the
    final NVM state and device output equal a failure-free run's.

    The persistency model is a value the tracked run carries: the cWSP
    hardware above, or explicit flush/fence persistency, whose durable
    image survives the cut and resumes blindly at the newest boundary
    through the same resume and compare. A sweep runs many crash points
    on one tracked run, in ascending order: everything after the run
    step works on copies of the tracked state.

    Call frames *below* the recovery point are restored from the boundary
    snapshot: they model the NVM-resident stack (spilled registers and
    return addresses live in ordinary persistent memory on a real
    machine; our IR keeps them in interpreter frames). *)

open Cwsp_ir
open Cwsp_interp
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
  static_id : int;       (* global boundary id that opened this region;
                            -1 for region 0 (program start); -2 for the
                            resume point of a post-recovery execution *)
  frames : Machine.frame list;
    (* snapshot at region entry; for a boundary, the open frame's
       register contents are dead ([boundary_frames]) *)
  depth : int;
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

(* The persistency model a tracked run keeps beside its machine: the
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
      mutable sync_floor : int;
        (* highest *closed* region that contained a sync primitive:
           stores prior to a committed atomic are persisted before it
           commits (Section VIII), so the recovery point can never move
           at or before such a region *)
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
      mutable last_store : (int * int) option;
        (* the store the current instruction just performed, so the
           atomic event can claim its value (hook order is
           store-then-event) *)
      mutable ckpt_undo : (int * int) list; (* open region's ckpt (addr, old) *)
    }

type tracked = {
  machine : Machine.t;
  compiled : Cwsp_compiler.Pipeline.compiled;
  model : model;
  ring : region_record array;
    (* the tracked regions, [head] the newest. cWSP: a fixed ring of
       window+1 slots, where the window is the RBT size (max
       concurrently-unpersisted regions); a boundary overwrites the
       oldest slot once the ring is full, so tracking costs O(1) per
       boundary. Explicit: one slot, the newest boundary *)
  mutable head : int;
  mutable tracked_n : int; (* occupied slots *)
  mutable region_count : int;
  recorder : Recorder.t option;
    (* the flight ring, formatted when the run records inside the image
       the cut preserves; the boundary hook appends to it *)
}

let copy_frame (fr : Machine.frame) = { fr with regs = Array.copy fr.regs }

let cwsp_model () =
  Cwsp { logs = Mc_logs.create ~n_mcs:2; slot_vals = Slots.create 64; sync_floor = -1 }

let make_tracked ~slots ~compiled ~machine ~model ~region0 ~recorder =
  {
    machine;
    compiled;
    model;
    ring = Array.make slots region0;
    head = 0;
    tracked_n = 1;
    region_count = 0;
    recorder;
  }

(* A run of [compiled] from program start under [mode]'s model. *)
let create ~window ~flight ~(mode : Cwsp_compiler.Pipeline.persist_mode)
    (compiled : Cwsp_compiler.Pipeline.compiled) =
  let linked = Machine.link compiled.prog in
  let machine = Machine.create linked in
  (* The ring lives in the image the cut preserves. cWSP: the machine's
     own NVM, which the cut snapshots. Explicit: the durable image, where
     each append is its own flush+fence (the commit-word ordering is the
     failure-atomicity), so the ring survives the deterministic crash
     whole. *)
  let model, slots, ring_image =
    match mode with
    | Implicit -> (cwsp_model (), window + 1, machine.mem)
    | Explicit ->
      let nvm = Memory.snapshot machine.mem in
      ( Explicit
          { nvm; pending = Hashtbl.create 64; pending_atomic = None;
            last_store = None; ckpt_undo = [] },
        1,
        nvm )
  in
  make_tracked ~slots ~compiled ~machine ~model
    ~recorder:(if flight then Some (Recorder.format ring_image) else None)
    ~region0:
      { region_index = 0; static_id = -1; frames = []; depth = 0;
        outputs_at_entry = 0; has_sync = false }

(** Track a machine that is itself resuming after a recovery: crashes
    before its first boundary roll back to the resume point (whose
    registers the previous recovery already restored), not to program
    start. Enables crash-during-recovery validation. *)
let create_resumed ?(window = 16) (compiled : Cwsp_compiler.Pipeline.compiled)
    (machine : Machine.t) =
  make_tracked ~slots:(window + 1) ~compiled ~machine ~model:(cwsp_model ())
    ~recorder:None
    ~region0:
      { region_index = 0; static_id = -2;
        frames = List.map copy_frame machine.frames; depth = machine.depth;
        outputs_at_entry = 0; has_sync = false }

let current_region t = t.ring.(t.head)

(* Call-stack snapshot at a boundary. The open frame's registers are
   dead there — recovery poisons them and rebuilds the live-ins from the
   region's slice — so that frame keeps only its position and shares the
   live register array (resumes copy it before poisoning). Caller frames
   are NVM-resident stack state and are copied whole. *)
let boundary_frames = function
  | (top : Machine.frame) :: callers ->
    { top with regs = top.regs } :: List.map copy_frame callers
  | [] -> []

(* The tracked regions, newest first (position 0 is the open region). *)
let tracked_regions t =
  let cap = Array.length t.ring in
  List.init t.tracked_n (fun back -> t.ring.((t.head - back + cap) mod cap))

(* Region-buffered I/O: the device output released before region [r]
   began, once every earlier region persisted; the rest is still
   buffered. Oldest first. *)
let released t (r : region_record) =
  List.filteri (fun i _ -> i < r.outputs_at_entry) (Machine.outputs t.machine)

(* Boundary [static_id] opens the next region in the ring's next slot,
   which overwrites the oldest once the ring is full. *)
let open_region t static_id =
  let cap = Array.length t.ring in
  let next = (t.head + 1) mod cap in
  if t.tracked_n < cap then t.tracked_n <- t.tracked_n + 1;
  t.region_count <- t.region_count + 1;
  t.ring.(next) <-
    {
      region_index = t.region_count;
      static_id;
      frames = boundary_frames t.machine.frames;
      depth = t.machine.depth;
      outputs_at_entry = List.length t.machine.outputs;
      has_sync = false;
    };
  t.head <- next

(* The run's instrumentation, one model's closures: the match runs once
   here, never per store or event. *)
let hooks t : Machine.hooks =
  match t.model with
  | Cwsp c ->
    let on_boundary static_id =
      (* closing a region that contained a sync primitive seals it: the
         drain semantics of Section VIII guarantee everything up to and
         including it is persistent *)
      let cur = current_region t in
      if cur.has_sync then c.sync_floor <- cur.region_index;
      (* flight recorder: a boundary commit plus persist-path telemetry.
         The arguments cost a fold over every live log, so they are
         computed only when the run records; unrecorded runs pay one
         branch per region boundary. *)
      (match t.recorder with
      | Some r ->
        let live = Mc_logs.live_entries c.logs in
        Recorder.append r ~kind:Recorder.Boundary t.machine.steps static_id live
          (if cur.has_sync then 1 else 0);
        Recorder.append r ~kind:Recorder.Telemetry t.tracked_n live c.sync_floor
          (Slots.length c.slot_vals)
      | None -> ());
      (* once the ring is full, the oldest region falls out of the
         tracking window and is treated as persisted (non-speculative):
         the MCs reclaim its log arrays, exactly the hardware's
         deallocation protocol *)
      let cap = Array.length t.ring in
      if t.tracked_n = cap then
        Mc_logs.deallocate c.logs ~region:t.ring.((t.head + 1) mod cap).region_index;
      open_region t static_id
    in
    {
      on_event =
        (fun ev ->
          let tag = Event.tag ev in
          if tag = Event.tag_boundary then on_boundary (Event.payload ev)
          else if tag = Event.tag_atomic then (current_region t).has_sync <- true);
      on_store =
        (fun ~addr ~old ~value ->
          (* every speculative store is undo-logged on arrival at its MC;
             the open region is always the newest, [region_count] *)
          Mc_logs.log c.logs ~region:t.region_count ~addr ~old ~value;
          if Layout.is_ckpt_addr addr then Slots.replace c.slot_vals addr value);
    }
  | Explicit e ->
    let drain () =
      Hashtbl.iter (fun addr v -> Memory.write e.nvm addr v) e.pending;
      Hashtbl.reset e.pending
    in
    {
      on_store =
        (fun ~addr ~old:_ ~value ->
          if Layout.is_ckpt_addr addr then begin
            (* hardware persist path of the checkpoint engine:
               write-through, journaled until the region's boundary
               commits the run *)
            let nold = Memory.read e.nvm addr in
            Memory.write e.nvm addr value;
            e.ckpt_undo <- (addr, nold) :: e.ckpt_undo
          end
          else e.last_store <- Some (addr, value));
      on_event =
        (fun ev ->
          let tag = Event.tag ev in
          if tag = Event.tag_flush then begin
            let addr = Event.payload ev in
            if not (Layout.is_ckpt_addr addr) then
              (* the writeback captures the line's current cache contents *)
              Hashtbl.replace e.pending addr (Memory.read t.machine.mem addr)
          end
          else if tag = Event.tag_pfence || tag = Event.tag_fence then drain ()
          else if tag = Event.tag_atomic then begin
            (* full sync: drains the persist stream; its own write is a
               failure-atomic unit completing at the closing boundary *)
            drain ();
            match e.last_store with
            | Some (a, v) when a = Event.payload ev -> e.pending_atomic <- Some (a, v)
            | _ -> ()
          end
          else if tag = Event.tag_boundary then begin
            (* flight recorder: boundary commit in the explicit model,
               with the flushed-but-unfenced set as persist telemetry *)
            (match t.recorder with
            | Some r ->
              Recorder.append r ~kind:Recorder.Boundary t.machine.steps
                (Event.payload ev) (Hashtbl.length e.pending)
                (match e.pending_atomic with Some _ -> 1 | None -> 0)
            | None -> ());
            (match e.pending_atomic with
            | Some (a, v) -> Memory.write e.nvm a v
            | None -> ());
            e.pending_atomic <- None;
            e.ckpt_undo <- [];
            open_region t (Event.payload ev)
          end;
          (* an event ends the instruction whose store an atomic claims *)
          e.last_store <- None);
    }

(** Run until [crash_at] instructions have executed in all (or to
    completion). Returns [true] if the program halted first. *)
let run_to t crash_at =
  let h = hooks t in
  while t.machine.status = Machine.Running && t.machine.steps < crash_at do
    Machine.step t.machine h
  done;
  t.machine.status = Machine.Halted

(* ---- shared crash helpers ---- *)

(** Un-persist a random per-MC FIFO suffix of one region's data stores:
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

(** Resume thread [tid] of [linked] on [mem] at a region entry whose call
    stack is [frames] (copied, so a snapshot can be resumed again). With
    [Some slice] the open frame's registers are poisoned and the
    recovery slice rebuilds its live-ins from the thread's checkpoint
    slots; with [None] the snapshot's registers resume as they are. *)
let resume_slice ~tid (linked : Machine.linked) ~mem ~frames ~depth slice =
  let frames = List.map copy_frame frames in
  Option.iter
    (fun slice ->
      let fr = List.hd frames in
      Array.fill fr.regs 0 (Array.length fr.regs) poison;
      let slot r = Memory.read mem (Layout.ckpt_slot ~tid ~depth r) in
      let addr_of g =
        match Hashtbl.find_opt linked.global_addr g with
        | Some a -> a
        | None -> failwith ("recovery slice references unknown global " ^ g)
      in
      List.iter
        (fun (r, expr) -> fr.regs.(r) <- Cwsp_ckpt.Slice.eval ~slot ~addr_of expr)
        slice)
    slice;
  Machine.resume ~tid linked ~mem ~frames:(`Frames frames) ~depth

type golden = { g_mem : Memory.t; g_outputs : int list; g_steps : int }

(** The reference a finished failure-free run [m] provides. *)
let golden_of_run (m : Machine.t) =
  { g_mem = m.mem; g_outputs = Machine.outputs m; g_steps = m.steps }

(** Failure-free reference run, shared across a campaign's cells. *)
let golden_of (compiled : Cwsp_compiler.Pipeline.compiled) =
  let m = Machine.create (Machine.link compiled.prog) in
  Machine.run m Machine.no_hooks;
  golden_of_run m

(* Run [f], which steps a resumed machine. A trap, a wild memory access
   (a poisoned or corrupted register used as a pointer) or a hang is a
   wrong outcome of recovery, not a harness failure. *)
let stepping f =
  match f () with
  | v -> Ok v
  | exception Machine.Trap msg -> Error ("recovered run trapped: " ^ msg)
  | exception Machine.Fuel_exhausted -> Error "recovered run failed to halt"
  (* [Memory]'s fault on a misaligned or negative address. Only its own
     messages are matched: an index error elsewhere is a harness bug and
     must still escape. *)
  | exception Invalid_argument msg when String.starts_with ~prefix:"Memory: " msg
    ->
    Error ("recovered run faulted: " ^ msg)

(* Run the resumed machine to completion and compare against the golden
   run: [released] (the device output released before the crash) plus
   the resumed run's output must be the golden stream, and the final NVM
   image the golden image. Any failure to get there ([stepping]) or any
   NVM/IO divergence is a wrong outcome — the oracle, independent of all
   checksums — reported with its first difference. A hang is bounded by
   a generous multiple of the failure-free step count. The
   flight-recorder region is excluded: it is observability state,
   written on the crashing path only, and legitimately differs from the
   failure-free image. *)
let run_and_compare golden ~released m : (unit, string) result =
  let fuel = (4 * golden.g_steps) + 10_000 in
  match stepping (fun () -> Machine.run ~fuel m Machine.no_hooks) with
  | Error e -> Error e
  | Ok () ->
    let outputs = Machine.outputs m in
    if released @ outputs <> golden.g_outputs then
      Error
        (Printf.sprintf
           "device I/O diverged: %d released + %d regenerated vs %d golden"
           (List.length released) (List.length outputs)
           (List.length golden.g_outputs))
    else if Memory.equal_except ~except:Layout.is_flight_addr golden.g_mem m.mem
    then Ok ()
    else
      match
        Memory.first_diff_except ~except:Layout.is_flight_addr golden.g_mem m.mem
      with
      | Some (addr, g, r) ->
        Error
          (Printf.sprintf "NVM mismatch at 0x%x: golden=%d recovered=%d" addr g
             r)
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

(** The surviving durable state at the instant power is lost, before any
    recovery runs and before any fault is injected into it: the NVM
    image (with the chosen un-persisted suffix of R_o's stores removed),
    the MC log arrays, the checkpoint-area shadow checksums, and the
    tracking metadata recovery needs. It is a pure value — injectors
    mutate it, and both the blind and the hardened protocols can be run
    (repeatedly, for the crash-during-recovery sweep) against copies of
    it. *)
type crash_state = {
  cs_mem : Memory.t;
  cs_logs : Mc_logs.t;
  cs_slot_sums : (int, int) Hashtbl.t;
  cs_regions : region_record list; (* newest first, as tracked *)
  cs_nominal : int; (* position of R_o, the nominal recovery point *)
  cs_released : int list; (* device outputs already released, oldest first *)
  cs_sync_floor : int;
  cs_crash_step : int;
  cs_linked : Machine.linked;
  cs_compiled : Cwsp_compiler.Pipeline.compiled;
}

(** Cut power now and build the surviving durable state. Physically
    honest about per-location persist FIFOs: R_o's un-persisted suffix
    skips addresses a younger tracked region also stored to (a younger
    persisted store to the same location implies R_o's earlier store
    persisted first), and younger regions' speculative stores are left
    in the image — reverting them is recovery's job, not the crash's. *)
let cut_power rng (t : tracked) : crash_state =
  let logs, slot_vals, sync_floor =
    match t.model with
    | Cwsp c -> (c.logs, c.slot_vals, c.sync_floor)
    | Explicit _ -> invalid_arg "Harness.cut_power: not a cWSP run"
  in
  (* copies: the crash state is a value, and [has_sync] is mutable *)
  let regions =
    List.map (fun (r : region_record) -> { r with has_sync = r.has_sync })
      (tracked_regions t)
  in
  let eligible =
    List.length
      (List.filter
         (fun (r : region_record) -> r.region_index > sync_floor)
         regions)
  in
  let avail = max 1 eligible in
  let back = Cwsp_util.Rng.int rng avail in
  let r_o = List.nth regions back in
  let mem = Memory.snapshot t.machine.mem in
  let slot_sums = Hashtbl.create (Slots.length slot_vals) in
  Slots.iter
    (fun a v -> Hashtbl.replace slot_sums a (Fault.value_sum v))
    slot_vals;
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
  {
    cs_mem = mem;
    cs_logs = Mc_logs.copy logs;
    cs_slot_sums = slot_sums;
    cs_regions = regions;
    cs_nominal = back;
    cs_released = released t r_o;
    cs_sync_floor = sync_floor;
    cs_crash_step = t.machine.steps;
    cs_linked = t.machine.linked;
    cs_compiled = t.compiled;
  }

(* Newest verified record per address across all tracked regions; the
   position (index into cs_regions) tells which side of a rollback
   boundary last wrote the address. Per address the order is exact: a
   location always maps to one MC, whose per-region lists are newest
   first, and list position is newest first too. *)
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
    cs.cs_regions;
  tbl

(* Checkpoint-slot addresses a region's recovery slice reads. *)
let slice_slot_addrs cs (r : region_record) =
  if r.static_id < 0 then []
  else
    cs.cs_compiled.slices.(r.static_id)
    |> List.concat_map (fun (_, e) -> Cwsp_ckpt.Slice.slot_refs e)
    |> List.sort_uniq compare
    |> List.map (fun reg -> Layout.ckpt_slot ~tid:0 ~depth:r.depth reg)

(* ---- fault injection into a crash state ---- *)

let inject rng (cls : Fault.cls) cs : string option =
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
              ((if idx > cs.cs_nominal then c :: deep else deep), c :: any))
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
            if idx > cs.cs_nominal then (addr, e) :: acc else acc)
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
        ~regions:(List.map (fun (r : region_record) -> r.region_index) cs.cs_regions)
  | Fault.Ckpt_bitflip ->
      (* bit rot in a checkpoint slot (the slot's shadow checksum still
         describes the intended value). A flip in a slot the nominal
         revert set covers is healed by the replay before the slice
         reads it — legal but unobservable — so prefer slots the slice
         reads whose checkpoint is OLDER than the rollback boundary
         (pruning makes slices read ancient slots), then any uncovered
         written slot, then anything the slice reads. *)
      let r_o = List.nth cs.cs_regions cs.cs_nominal in
      let m = newest_per_addr cs in
      let covered a =
        match Hashtbl.find_opt m a with
        | Some (idx, _) -> idx <= cs.cs_nominal
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

(** Audit rollback boundary [back] (position in [cs_regions]).

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
  let rung = List.nth cs.cs_regions back in
  if rung.region_index <= cs.cs_sync_floor then begin
    fatal := true;
    note "rollback would cross a committed sync point"
  end;
  if rung.outputs_at_entry <> List.length cs.cs_released then begin
    fatal := true;
    note "rollback would re-release device I/O"
  end;
  let n_regions = List.length cs.cs_regions in
  let region_arr = Array.of_list cs.cs_regions in
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

type world = {
  w_mem : Memory.t;
  w_logs : Mc_logs.t;
  w_sums : (int, int) Hashtbl.t;
  mutable w_intent : int option;
}

let world_of cs =
  {
    w_mem = Memory.snapshot cs.cs_mem;
    w_logs = Mc_logs.copy cs.cs_logs;
    w_sums = Hashtbl.copy cs.cs_slot_sums;
    w_intent = None;
  }

let exec_step w = function
  | S_intent r -> w.w_intent <- Some r
  | S_revert (addr, v) ->
      Memory.write w.w_mem addr v;
      (* recovery's writes go through the MCs like any store: slot
         metadata follows the slot *)
      if Layout.is_ckpt_addr addr then
        Hashtbl.replace w.w_sums addr (Fault.value_sum v)
  | S_truncate -> Mc_logs.reset w.w_logs
  | S_slice _ -> () (* registers are volatile; materialized at resume *)

let run_plan w plan = List.iter (exec_step w) plan

(* Undo-log reverts of the regions at positions <= [back], the records
   [keep] selects, newest region first and newest record first. *)
let revert_steps cs ~logs ~back keep =
  List.concat
    (List.mapi
       (fun i (r : region_record) ->
         if i > back then []
         else
           Mc_logs.region_entries logs ~region:r.region_index
           |> List.filter (keep i)
           |> List.map (fun (e : Mc_logs.entry) -> S_revert (e.e_addr, e.e_old)))
       cs.cs_regions)

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
  let rung = List.nth cs.cs_regions back in
  (S_intent rung.region_index
   :: revert_steps cs ~logs:cs.cs_logs ~back (fun _ e -> not (List.memq e skip)))
  @ (S_truncate :: slice_steps cs rung)

(** Blind (legacy-ordering) plan: trust every record, revert only the
    younger regions plus R_o's checkpoint stores, and — the vulnerability
    the hardened ordering fixes — free the log space while loading the
    records into volatile buffers, BEFORE the reverts are applied. Built
    from [logs] so a restart after a mid-recovery crash sees whatever
    log state survived. *)
let blind_plan cs ~logs =
  let back = cs.cs_nominal in
  (S_truncate
   :: revert_steps cs ~logs ~back (fun i (e : Mc_logs.entry) ->
          i < back || Layout.is_ckpt_addr e.e_addr))
  @ slice_steps cs (List.nth cs.cs_regions back)

(** Resume execution at rung [back] on [w]'s memory: evaluate the rung's
    recovery slice into a poisoned register file (or restart/rewind for
    the pre-first-boundary cases). *)
let resume_at cs w ~back =
  let rung = List.nth cs.cs_regions back in
  let resume =
    resume_slice ~tid:0 cs.cs_linked ~mem:w.w_mem ~frames:rung.frames
      ~depth:rung.depth
  in
  match rung.static_id with
  | -1 -> Machine.resume cs.cs_linked ~mem:w.w_mem ~frames:`Fresh ~depth:0
  | -2 -> resume None
  | id -> resume (Some cs.cs_compiled.slices.(id))

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
    post-second-crash world and must bring recovery to completion the
    way the protocol under test would. Returns the crash-free recovery's
    comparison and the number of sweep runs that ended wrong. When
    [sweep] is empty only the crash-free recovery runs.

    Sweep resumes are memoized on the recovered image: [resume_at] and
    [run_and_compare] read nothing of a world but its memory, so a sweep
    world whose image equals the clean recovery's (the whole image,
    flight region included) would replay the clean run step for step —
    it takes the clean verdict instead of re-running it. *)
let execute_recovery cs golden ~back ~plan ~restart ~sweep =
  let verdict w =
    run_and_compare golden ~released:cs.cs_released (resume_at cs w ~back)
  in
  let clean = world_of cs in
  run_plan clean plan;
  (* the resumed run mutates the image, so keep the recovered one *)
  let clean_image =
    if sweep = [] then None else Some (Memory.snapshot clean.w_mem)
  in
  let clean_verdict = verdict clean in
  let once k =
    let w = world_of cs in
    List.iteri (fun i s -> if i <= k then exec_step w s) plan;
    (* power failed; volatile state (loaded plan, registers) is gone *)
    restart w;
    match clean_image with
    | Some img when Memory.equal img w.w_mem ->
      Obs.Counter.incr c_sweep_reused;
      Result.is_ok clean_verdict
    | _ ->
      Obs.Counter.incr c_sweep_rerun;
      Result.is_ok (verdict w)
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
    let linked = t.machine.linked in
    let crash_step = t.machine.steps in
    (* newest-first replay of the open region's ckpt undo restores the
       slots as of the newest boundary *)
    let image = Memory.snapshot e.nvm in
    List.iter (fun (addr, old) -> Memory.write image addr old) e.ckpt_undo;
    let r = current_region t in
    let recovered, boundary, restored =
      if r.static_id < 0 then
        (Machine.resume linked ~mem:image ~frames:`Fresh ~depth:0, 0, 0)
      else
        let slice = t.compiled.slices.(r.static_id) in
        ( resume_slice ~tid:0 linked ~mem:image ~frames:r.frames ~depth:r.depth
            (Some slice),
          r.static_id,
          List.length slice )
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
        (run_and_compare golden ~released:(released t r) recovered)
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
    let region_at back = (List.nth cs.cs_regions back).region_index in
    let nominal_region = region_at cs.cs_nominal in
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
    (* [back] is the rung recovery used, -1 when it refused *)
    let report ~back ~outcome ~detections ~verdict ~sweep ~plan ~failures =
      ( {
          fr_crash_step = cs.cs_crash_step;
          fr_nominal_region = nominal_region;
          fr_rung_region = (if back < 0 then -1 else region_at back);
          fr_outcome = outcome;
          fr_injected =
            (if want_sweep then Some "power failure during recovery (sweep)"
             else injected);
          fr_detections = detections;
          fr_state_ok = Result.is_ok verdict && failures = 0;
          fr_sweep_points = List.length sweep;
          fr_sweep_slice_points = slice_cut_count plan sweep;
          fr_sweep_failures = failures;
          fr_rollback = back;
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
      report ~back:(-1) ~outcome:Refused ~detections ~verdict:(Ok ()) ~sweep:[]
        ~plan:[] ~failures:0
    in
    (* run [plan] at rung [back] (swept by mid-recovery power failures,
       each followed by [restart]), resume, compare and record *)
    let recover ~back ~outcome ~detections ~plan ~restart =
      let sweep = if want_sweep then sweep_cuts plan ~max_reverts:8 else [] in
      (* mid-recovery power failures re-attach the ring of the sweep
         world's image and open yet another epoch before replaying *)
      let restart w =
        crash_epoch t w.w_mem Recorder.Restart 0 0 0 0;
        restart w
      in
      let verdict, failures =
        execute_recovery cs golden ~back ~plan ~restart ~sweep
      in
      rapp Recorder.Decision
        (if outcome = Recovered then 0 else 1)
        back (List.length detections)
        (if Result.is_ok verdict && failures = 0 then 1 else 0);
      let slices, steps =
        if hardened then
          ( count is_slice plan,
            count (function S_revert _ -> true | _ -> false) plan )
        else (0, List.length plan)
      in
      rapp Recorder.Resume (region_at back) slices steps 0;
      report ~back ~outcome ~detections ~verdict ~sweep ~plan ~failures
    in
    if not hardened then
      (* blind protocol: trust every surviving byte. A restart re-reads
         whatever logs survived — after the premature truncation,
         usually nothing. *)
      recover ~back:cs.cs_nominal ~outcome:Recovered ~detections:[]
        ~plan:(blind_plan cs ~logs:cs.cs_logs)
        ~restart:(fun w -> run_plan w (blind_plan cs ~logs:w.w_logs))
    else begin
      (* hardened protocol: audit, degrade, or refuse *)
      let n = List.length cs.cs_regions in
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
            let restart w =
              match w.w_intent with
              | None -> run_plan w plan
              | Some _ ->
                if Mc_logs.live_entries w.w_logs > 0 then
                  List.iter
                    (function
                      | (S_revert _ | S_truncate) as s -> exec_step w s
                      | _ -> ())
                    plan
            in
            recover ~back
              ~outcome:(if back = cs.cs_nominal then Recovered else Degraded)
              ~detections ~plan ~restart
          end
        end
      in
      ladder cs.cs_nominal []
    end

(** Crash [compiled] at every one of [points] on one tracked run of
    [mode]'s model, stepped to each in ascending order; results in input
    order. The explicit model has no fault classes: a hardened or
    faulted point is rejected rather than reported clean. *)
let sweep_points ~window ~flight ~mode ~golden
    (compiled : Cwsp_compiler.Pipeline.compiled) points : outcome list =
  if
    mode = Cwsp_compiler.Pipeline.Explicit
    && List.exists (fun p -> p.cp_hardened || p.cp_fault <> None) points
  then invalid_arg "Harness.sweep: no hardened or faulted point in the explicit model";
  if points = [] then []
  else begin
    (* The recorder ring is formatted once, inside the image the cut
       preserves, and written by the run's boundary hook; its writes
       bypass the instrumentation hooks (never undo-logged) and nothing
       in recovery reads it, so enabling it cannot change any outcome.
       Its rng draws come from a dedicated stream so the main rng's draw
       sequence is byte-identical with recording on or off. Each point
       dumps the ring as its own crash left it, so a dump does not
       depend on the other points of the sweep. *)
    let t = create ~window ~flight:(flight || flight_env) ~mode compiled in
    (* the one run advances through the points in ascending crash-step
       order (stable); results in input order *)
    let halted = Error "program halted before the crash point" in
    let results = Array.make (List.length points) halted in
    List.mapi (fun i p -> (i, p)) points
    |> List.stable_sort (fun (_, a) (_, b) -> compare a.cp_at b.cp_at)
    |> List.iter (fun (i, p) ->
           if not (run_to t p.cp_at) then results.(i) <- Ok (crash_point ~golden t p));
    Array.to_list results
  end

let sweep ?(window = 16) ?(flight = false) ~mode ~golden compiled points =
  if not !Obs.on then sweep_points ~window ~flight ~mode ~golden compiled points
  else
    Obs.time ~cat:"recovery"
      ~args:[ ("points", float_of_int (List.length points)) ]
      "sweep"
      (fun () -> sweep_points ~window ~flight ~mode ~golden compiled points)

(* The one-point [sweep] against [golden], by default the binary's own
   failure-free run. *)
let one_point ?window ?flight ~mode ?golden compiled p =
  let golden = match golden with Some g -> g | None -> golden_of compiled in
  match sweep ?window ?flight ~mode ~golden compiled [ p ] with
  | [ r ] -> r
  | _ -> assert false

(** Validate one adversarial crash. Runs [compiled] to [crash_at], cuts
    power, injects [fault] into the surviving state (for
    [Recovery_crash] the injection IS a second power failure swept
    across every recovery step), then recovers — hardened (audit +
    degradation ladder + staged idempotent plan) or blind (trust
    everything, legacy ordering) — and compares the final state against
    a failure-free run. The returned report says what the adversary did,
    what the audits detected, and whether the final state is right;
    [Refused] means recovery proved it could not proceed safely and
    stopped without committing any image. *)
let validate_fault ?window ?golden ?flight ~hardened ?fault ~seed ~crash_at
    (compiled : Cwsp_compiler.Pipeline.compiled) :
    (fault_report, string) result =
  Result.map fst
    (one_point ?window ?flight ~mode:Implicit ?golden compiled
       { cp_at = crash_at; cp_seed = seed; cp_hardened = hardened; cp_fault = fault })

(** Clean crash: [validate_fault] with no fault and the blind plan — the
    nominal protocol on a correct persistence path. A wrong final state
    is an [Error] carrying the first difference. *)
let validate ?window ~seed ~crash_at
    (compiled : Cwsp_compiler.Pipeline.compiled) : (fault_report, string) result
    =
  require_clean
    (one_point ?window ~mode:Implicit compiled (clean_point ~seed ~crash_at))

(** Multi-failure validation: run to [c], crash, recover with the blind
    plan, resume, crash again at the next point of [crash_points] —
    recovery itself must be crash consistent. Compares the final NVM
    state and the exactly-once I/O stream against a failure-free run. *)
let validate_chain ?(window = 16) ~seed ~crash_points
    (compiled : Cwsp_compiler.Pipeline.compiled) : (int, string) result =
  let rng = Cwsp_util.Rng.create seed in
  let golden = golden_of compiled in
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
      let w = world_of cs in
      run_plan w (blind_plan cs ~logs:cs.cs_logs);
      let m = resume_at cs w ~back:cs.cs_nominal in
      go (create_resumed ~window compiled m) rest (released @ cs.cs_released)
        (crashes + 1)
    | verdict -> (
      (* no more failures, or the program halted before the next one *)
      match
        Result.bind verdict (fun _ -> run_and_compare golden ~released t.machine)
      with
      | Ok () -> Ok crashes
      | Error e -> Error (Printf.sprintf "%s (after %d crashes)" e crashes))
  in
  go (create ~window ~flight:false ~mode:Implicit compiled) crash_points [] 0

(** One explicit-persistency crash at [crash_at]: the explicit model's
    one-point [sweep], a wrong final state an [Error]. *)
let validate_explicit ?flight ~crash_at
    (compiled : Cwsp_compiler.Pipeline.compiled) : (fault_report, string) result
    =
  require_clean
    (one_point ?flight ~mode:Explicit compiled (clean_point ~seed:0 ~crash_at))
