(** Multi-core power-failure injection and recovery (Section VIII,
    "Recovery for Multi-Cores").

    The paper's claim for data-race-free programs: stores before a
    synchronization primitive persist before the primitive commits, so at
    most one thread can be inside a critical section when power fails,
    and each thread resumes {e independently} from the end of its own
    latest persisted region — no happens-before tracking is needed at
    recovery time.

    This harness drives an SPMD execution ([Cwsp_interp.Multi]) with a
    global region-id counter (the hardware-managed counter of Fig. 9),
    global per-MC undo-log arrays, and per-thread region snapshots. At a
    power failure, every thread picks its own oldest unpersisted region
    (never at or before its last committed sync point — the drain
    guarantees those persisted), all chosen threads' speculative stores
    are reverted in reverse global region order, per-thread recovery
    slices restore live-ins, and all threads resume.

    The soundness of independent per-thread recovery rests on DRF + the
    sync drain: data written by a thread's unpersisted regions postdates
    its last sync, so no other thread can have (race-freely) read it. *)

open Cwsp_interp

type region_record = {
  region_index : int; (* global id *)
  static_id : int;    (* -1 = worker start; -3 = post-sync resume point *)
  frames : Machine.frame list;
  depth : int;
}

type thread_state = {
  tid : int;
  mutable regions : region_record list; (* newest first *)
  mutable sync_floor : int;
}

type tracked = {
  multi : Multi.t;
  compiled : Cwsp_compiler.Pipeline.compiled;
  window : int;
  logs : Mc_logs.t;
  threads : thread_state array;
  mutable next_region : int; (* global atomically-increasing counter *)
}

let copy_frame (fr : Machine.frame) = { fr with regs = Array.copy fr.regs }

let worker_start_record tid (m : Machine.t) =
  {
    region_index = -1 - tid; (* distinct negative ids per thread *)
    static_id = -1;
    frames = List.map copy_frame m.frames;
    depth = m.depth;
  }

let create ?(window = 16) (compiled : Cwsp_compiler.Pipeline.compiled) ~threads
    ~worker =
  let linked = Machine.link compiled.prog in
  let multi = Multi.create linked ~threads ~worker in
  {
    multi;
    compiled;
    window;
    logs = Mc_logs.create ~n_mcs:2;
    threads =
      Array.mapi
        (fun tid m ->
          { tid; regions = [ worker_start_record tid m ]; sync_floor = min_int })
        multi.machines;
    next_region = 0;
  }

let current_region ts = List.hd ts.regions

let hooks (t : tracked) tid : Machine.hooks =
  let ts = t.threads.(tid) in
  let m = t.multi.machines.(tid) in
  let push_record ~static_id =
    let gid = t.next_region in
    t.next_region <- gid + 1;
    let rec trim n = function
      | [] -> []
      | x :: rest ->
        if n = 0 then begin
          List.iter
            (fun r -> Mc_logs.deallocate t.logs ~region:r.region_index)
            (x :: rest);
          []
        end
        else x :: trim (n - 1) rest
    in
    ts.regions <-
      {
        region_index = gid;
        static_id;
        frames = List.map copy_frame m.Machine.frames;
        depth = m.Machine.depth;
      }
      :: trim t.window ts.regions
  in
  {
    on_event =
      (fun ev ->
        let tag = Event.tag ev in
        if tag = Event.tag_boundary then push_record ~static_id:(Event.payload ev)
        else if tag = Event.tag_atomic then begin
          (* The primitive's effect, its drain and its live state persist
             synchronously with its commit: once another thread can
             observe the atomic, this thread can never roll back past it.
             Model: seal everything up to here and snapshot a post-sync
             resume point (full register image, no slice). *)
          ts.sync_floor <- (current_region ts).region_index;
          push_record ~static_id:(-3)
        end);
    on_store =
      (fun ~addr ~old ~value ->
        Mc_logs.log t.logs ~region:(current_region ts).region_index ~addr ~old
          ~value);
  }

(** Run all threads round-robin for roughly [steps] more instructions in
    total (or to completion); [true] when every thread halted. *)
let run_until (t : tracked) steps =
  let consumed = ref 0 in
  let hs = Array.init (Array.length t.multi.machines) (hooks t) in
  let live () =
    Array.exists (fun m -> m.Machine.status = Machine.Running) t.multi.machines
  in
  while live () && !consumed < steps do
    Array.iteri
      (fun i m ->
        for _ = 1 to t.multi.quantum do
          if m.Machine.status = Machine.Running && !consumed < steps then begin
            incr consumed;
            Machine.step m hs.(i)
          end
        done)
      t.multi.machines
  done;
  not (live ())

(** Cut power on the whole machine and recover every thread. Returns the
    resumed [Multi.t]. *)
let crash_and_recover rng (t : tracked) : Multi.t =
  let mem = Memory.snapshot t.multi.mem in
  let linked = t.multi.linked in
  (* each thread picks its own oldest unpersisted region *)
  let chosen =
    Array.map
      (fun ts ->
        let eligible =
          List.filter (fun r -> r.region_index > ts.sync_floor) ts.regions
        in
        let avail = max 1 (List.length eligible) in
        let back = Cwsp_util.Rng.int rng (min avail t.window) in
        List.nth ts.regions back)
      t.threads
  in
  (* revert all speculative stores: any region strictly newer than its
     thread's recovery point (global reverse chronological order) *)
  let floor_of_thread = Array.map (fun r -> r.region_index) chosen in
  let owner_floor region =
    (* a region belongs to the thread whose records contain it; negative
       ids are worker starts *)
    let rec find i =
      if i >= Array.length t.threads then min_int
      else if
        List.exists
          (fun r -> r.region_index = region)
          t.threads.(i).regions
        || floor_of_thread.(i) = region
      then floor_of_thread.(i)
      else find (i + 1)
    in
    find 0
  in
  Mc_logs.revert_where t.logs
    ~should_revert:(fun region -> region > owner_floor region)
    ~apply:(fun addr old -> Memory.write mem addr old);
  (* per-thread: partially un-persist the recovery region's own stores,
     revert its checkpoint-area stores, restore live-ins, resume *)
  let machines =
    Array.mapi
      (fun tid r_o ->
        let entries = Mc_logs.region_entries t.logs ~region:r_o.region_index in
        let unpersist (e : Mc_logs.entry) = Memory.write mem e.e_addr e.e_old in
        Harness.fifo_suffix rng t.logs entries unpersist;
        List.iter
          (fun (e : Mc_logs.entry) ->
            if Layout.is_ckpt_addr e.e_addr then unpersist e)
          entries;
        Harness.resume_slice ~tid linked ~mem ~frames:r_o.frames
          ~depth:r_o.depth
          (if r_o.static_id >= 0 then Some t.compiled.slices.(r_o.static_id)
           else None))
      chosen
  in
  { t.multi with mem; machines }

(** Full experiment for schedule-deterministic DRF workloads: run the
    SPMD program to completion twice — once undisturbed, once with a
    power failure after ~[crash_at] instructions — and compare the final
    program-visible NVM state (the checkpoint area is excluded: recovery
    legitimately rewinds some per-thread slots, and re-execution under a
    different interleaving is entitled to a different checkpoint
    history). *)
let validate ?(window = 16) ~seed ~crash_at
    (compiled : Cwsp_compiler.Pipeline.compiled) ~threads ~worker :
    (unit, string) result =
  let rng = Cwsp_util.Rng.create seed in
  let golden, _ = Multi.traces_of_program compiled.prog ~threads ~worker in
  let t = create ~window compiled ~threads ~worker in
  let halted = run_until t crash_at in
  if halted then Error "program halted before the crash point"
  else begin
    let resumed = crash_and_recover rng t in
    Multi.run resumed (fun _ -> Machine.no_hooks);
    let data mem =
      let out = ref [] in
      Memory.iter
        (fun a v -> if not (Layout.is_ckpt_addr a) then out := (a, v) :: !out)
        mem;
      List.sort compare !out
    in
    if data golden.Multi.mem = data resumed.Multi.mem then Ok ()
    else
      let g = data golden.Multi.mem and r = data resumed.Multi.mem in
      let diff =
        List.find_opt (fun (a, v) -> List.assoc_opt a r <> Some v) g
      in
      Error
        (match diff with
        | Some (a, v) ->
          Printf.sprintf "multi-core NVM mismatch at 0x%x: golden=%d got=%s" a v
            (match List.assoc_opt a r with Some x -> string_of_int x | None -> "absent")
        | None -> "multi-core NVM mismatch")
  end
