(** The timing engine: replays commit-event traces under a persistence
    scheme, advancing a nanosecond timeline per core and charging stalls
    where the modeled hardware would produce backpressure.

    The modeled cWSP hardware follows Figure 9 of the paper:

    - every committed store (and register checkpoint) copies its 8 bytes
      into the persist buffer (PB, a repurposed write-combining buffer);
      the PB sends one entry per bandwidth slot over the persist path to
      the target memory controller's WPQ;
    - data is *persisted* on WPQ admission (battery-backed, Intel ADR
      semantics); the WPQ drains to media at the NVM write bandwidth, and
      speculatively-persisted entries are undo-logged, doubling their
      drain cost but staying off the critical path (asynchronous undo
      logging, Fig. 10b);
    - a region boundary allocates an RBT entry; with memory-controller
      speculation the core only stalls when the RBT is full, otherwise it
      stalls until the finishing region's stores have all persisted;
    - dirty L1D evictions wait in the write buffer until the same line
      has persisted (stale-read prevention); loads that miss every cache
      level and hit a pending WPQ entry wait for the entry to drain.

    One core or N: each core owns its L1D, write buffer, PB, Capri redo
    buffer, RBT, clocks, stats and trace; the L2 and deeper levels, the
    memory controllers' WPQs and the persist/drain tables behind them are
    shared. [run_traces] replays per-thread traces in global time order
    (the core with the smallest clock steps next, ties to the lowest
    index), so shared-queue contention is observed in the order a real
    machine would produce it. No coherence traffic is modeled — the PB
    is coherence-agnostic by design (Section V-A1) and the workloads are
    data-race-free, so coherence misses would add a scheme-independent
    constant to both sides of every ratio. Known modeling gap: the
    multi-core experiment ([Exp_mp]) runs cWSP without stage 5
    ([wpq_delay = false]), so its loads that hit a pending WPQ entry are
    counted but not delayed.

    Cache pass and timing pass (DESIGN.md §12): the caches are simulated
    by a cache pass that records each probe's outcome in an int buffer,
    and the handlers read the outcomes back in a timing pass. On one
    core no clock value reaches the caches, so [run_points] runs one
    cache pass per chunk of events and then the timing pass of every
    point that shares the cache levels; [run_trace] is its one-point
    case. Its points also prune their persist tables below their own
    clocks ([timing_pass]). On N cores the next core to touch the
    shared levels depends on the clocks, so [run_traces] runs the two
    passes event by event.

    Performance shape (DESIGN.md §12): the replay loop runs once per
    event across ~1700 simulation points, so this file keeps the per-
    event path allocation-free. All hot floats live in [clocks] — a
    record whose fields are all float, which OCaml stores flat (a float
    field assignment in a mixed record allocates a box every time);
    per-address state is in [Imap]s (open addressing, unboxed float
    values); cache results travel as packed ints ([Hierarchy.probe]);
    queue pushes are the unboxed [Tsq.push_u]. Stall breakdowns
    accumulate in [clocks] and are flushed to [Stats.t] once per run. *)

module Obs = Cwsp_obs.Obs
module Trace = Cwsp_ir.Trace
module Event = Cwsp_ir.Event
module Layout = Cwsp_ir.Layout

type cwsp_flags = {
  persist_path : bool;    (* stage 2 of Fig. 15: persist committed stores *)
  mc_speculation : bool;  (* stage 3: RBT admission + MC undo logging *)
  boundary_drain : bool;  (* prior-work behaviour: wait at every region end
                             for the region's stores to persist (the
                             conservative alternative to MC speculation) *)
  wb_delay : bool;        (* stage 4: stale-read prevention at the WB *)
  wpq_delay : bool;       (* stage 5: delay loads hitting the WPQ *)
}

let cwsp_full =
  { persist_path = true; mc_speculation = true; boundary_drain = false;
    wb_delay = true; wpq_delay = true }

let cwsp_flags_none =
  { persist_path = false; mc_speculation = false; boundary_drain = false;
    wb_delay = false; wpq_delay = false }

type scheme =
  | Baseline          (* no crash consistency support *)
  | Cwsp of cwsp_flags
  | Ido               (* persist barriers at every region boundary *)
  | Capri             (* 64B redo-buffer WSP with battery-backed buffers *)
  | Replaycache       (* software write-through persistence *)
  | Explicit_flush    (* compiler-inserted clwb/sfence persistency: data
                         stores are cache-only; flushes push 64B lines down
                         the persist path, pfences drain it; register
                         checkpoints keep the hardware persist path *)

let scheme_name = function
  | Baseline -> "baseline"
  | Cwsp _ -> "cwsp"
  | Ido -> "ido"
  | Capri -> "capri"
  | Replaycache -> "replaycache"
  | Explicit_flush -> "explicit-flush"

(* Float.max for the NaN-free timestamp domain (ties keep [a], exactly
   as [Float.max] does); stays unboxed when inlined. *)
let[@inline] fmax (a : float) (b : float) = if b > a then b else a

(** All-float mutable timeline state. Every field being float gives the
    record OCaml's flat double representation: field assignment writes
    the raw double in place instead of allocating a box, which is what
    the once-per-event [now <- now + cycle] update needs. One per core. *)
type clocks = {
  mutable now : float;
  mutable until : float;       (* the scheduler's bound on [now], see
                                  [run_core] *)
  mutable all_pm : float;      (* drain point for fences *)
  mutable region_pm : float;   (* max persist of current region *)
  (* stall breakdown, flushed to [Stats.t] at end of run *)
  mutable s_pb : float;
  mutable s_rbt : float;
  mutable s_drain : float;
  mutable s_sync : float;
  mutable s_wb : float;
  mutable s_wpq_hit : float;
  mutable s_redo : float;
  (* WB-occupancy samples (sum; the count is an int on the core) *)
  mutable wb_occ_sum : float;
  (* out-param of [persist_store] (a float return would be boxed) *)
  mutable pstall : float;
}

let clocks_create () =
  {
    now = 0.0;
    until = infinity;
    all_pm = 0.0;
    region_pm = 0.0;
    s_pb = 0.0;
    s_rbt = 0.0;
    s_drain = 0.0;
    s_sync = 0.0;
    s_wb = 0.0;
    s_wpq_hit = 0.0;
    s_redo = 0.0;
    wb_occ_sum = 0.0;
    pstall = 0.0;
  }

(** Flush the accumulated stall breakdown into a [Stats.t] (identical
    values to updating the stats per event — same additions in the same
    order, different storage). *)
let clocks_flush c (stats : Stats.t) =
  stats.elapsed_ns <- c.now;
  stats.stall_pb_ns <- c.s_pb;
  stats.stall_rbt_ns <- c.s_rbt;
  stats.stall_drain_ns <- c.s_drain;
  stats.stall_sync_ns <- c.s_sync;
  stats.stall_wb_ns <- c.s_wb;
  stats.stall_wpq_hit_ns <- c.s_wpq_hit;
  stats.stall_redo_ns <- c.s_redo

(* Persist-buffer model: [pb_entries] slots, freed when the entry is
   admitted into the target WPQ; sends are serialized at the persist-path
   bandwidth. Floats live in [fs] (flat array) — see [clocks]. *)
type pb = {
  free_at : float array;
  size : int;
  mutable count : int;
  fs : float array; (* 0 = last send; 1 = admit out; 2 = send out *)
}

let pb_create size =
  { free_at = Array.make size 0.0; size; count = 0; fs = Array.make 3 0.0 }

(* Leaves (slot_admit, send_time) in [fs.(1)], [fs.(2)]. *)
let[@inline always] pb_admit_send pb ~ready ~gap =
  let admit =
    if pb.count < pb.size then ready
    else fmax ready pb.free_at.(pb.count mod pb.size)
  in
  let send = fmax admit (Array.unsafe_get pb.fs 0 +. gap) in
  Array.unsafe_set pb.fs 0 send;
  Array.unsafe_set pb.fs 1 admit;
  Array.unsafe_set pb.fs 2 send

let[@inline always] pb_record_free pb free_time =
  pb.free_at.(pb.count mod pb.size) <- free_time;
  pb.count <- pb.count + 1

(* Region-boundary-table model: ring of region persist-completion times. *)
type rbt = { comp : float array; rsize : int; mutable rcount : int }

let rbt_create size = { comp = Array.make size 0.0; rsize = size; rcount = 0 }

let[@inline always] rbt_push rbt ~now ~completion =
  let admit =
    if rbt.rcount < rbt.rsize then now
    else fmax now rbt.comp.(rbt.rcount mod rbt.rsize)
  in
  rbt.comp.(rbt.rcount mod rbt.rsize) <- completion;
  rbt.rcount <- rbt.rcount + 1;
  admit -. now (* stall *)

let storage_bytes ~rbt_entries =
  (* 11 bytes per RBT entry: Region ID, PendingWrs, MCBitVec, RS pointer
     (Section IX-N) *)
  rbt_entries * 11

(* Shared by every core: the memory controllers and the persist/drain
   tables behind them (the shared cache levels sit in each core's
   [Hierarchy]). *)
type shared = {
  wpqs : Tsq.t array; (* one per MC *)
  line_persist : Imap.t; (* line -> last persist time *)
  word_wpq_done : Imap.t; (* word -> WPQ drain completion *)
  (* per-MC last line seen, for line-granularity write coalescing *)
  mc_last_line : int array;
  (* per-MC copy of [Config.numa_of_mc] (unboxed reads on the persist
     path; a cross-module float return would box without flambda) *)
  numa_ns : float array;
}

(* One core. *)
type t = {
  cfg : Config.t;
  scheme : scheme;
  sh : shared;
  stats : Stats.t;
  hier : Hierarchy.t; (* private L1 + the shared levels *)
  c : clocks;
  pb : pb;
  rbt : rbt;
  (* L1D write buffer *)
  wb : Tsq.t;
  mutable wb_occ_n : int; (* occupancy sample count *)
  (* Capri redo buffer *)
  redo : pb;
  (* the events being replayed, decoded, with their probe outcomes:
     written by the cache pass ([cache_event]), read from [rd] on by the
     timing pass ([step]) *)
  buf : int array;
  mutable rd : int;
  trace : Trace.t;
  mutable pos : int; (* next event *)
}

let shared_create (cfg : Config.t) =
  {
    wpqs = Array.init cfg.n_mcs (fun _ -> Tsq.create ~size:cfg.wpq_entries);
    line_persist = Imap.create 4096;
    word_wpq_done = Imap.create 4096;
    mc_last_line = Array.make cfg.n_mcs (-1);
    numa_ns = Array.init cfg.n_mcs (fun mc -> Config.numa_of_mc cfg mc);
  }

let create (cfg : Config.t) scheme sh hier buf trace =
  {
    cfg;
    scheme;
    sh;
    stats = Stats.create ();
    hier;
    c = clocks_create ();
    pb = pb_create cfg.pb_entries;
    rbt = rbt_create cfg.rbt_entries;
    wb = Tsq.create ~size:cfg.wb_entries;
    wb_occ_n = 0;
    redo = pb_create 288 (* 18KB Capri redo buffer / 64B lines *);
    buf;
    rd = 0;
    trace;
    pos = 0;
  }

(* ---- cache pass ---- *)

(* The caches see only the sequence of (address, write) accesses: no
   clock value reaches [Hierarchy], and a dirty L1 eviction's write-
   buffer drain installs into L2 before the next access whatever its
   timing. So the cache pass can run ahead of the timing pass. It
   leaves each event in a buffer, decoded — its tag, then for a memory
   event its address — followed by its probe outcomes: per probe the
   packed code, then, for a store whose code has [l1_evict_bit], the
   evicted line. (A load's dirty eviction is not replayed into the
   write buffer.) *)

let[@inline always] cache_load hier buf pos ~addr =
  Array.unsafe_set buf pos (Hierarchy.probe hier ~addr ~write:false);
  pos + 1

let[@inline always] cache_store hier buf pos ~addr =
  let code = Hierarchy.probe hier ~addr ~write:true in
  Array.unsafe_set buf pos code;
  if code land Hierarchy.l1_evict_bit = 0 then pos + 1
  else begin
    let line = Hierarchy.last_l1_evict hier in
    Hierarchy.wb_install hier ~line_addr:line;
    Array.unsafe_set buf (pos + 1) line;
    pos + 2
  end

(* The most ints one event writes: an atomic's tag, address, load code,
   store code and evicted line. *)
let max_event_ints = 5

(* Decode and probe one event, writing from [pos]; returns the next
   position. [step] reads it back. *)
let[@inline] cache_event hier buf pos ev =
  let tag = Event.tag ev in
  Array.unsafe_set buf pos tag;
  if
    tag = Event.tag_alu || tag = Event.tag_boundary || tag = Event.tag_fence
    || tag = Event.tag_pfence
  then pos + 1
  else begin
    let addr = Event.payload ev in
    Array.unsafe_set buf (pos + 1) addr;
    let pos = pos + 2 in
    if tag = Event.tag_load then cache_load hier buf pos ~addr
    else if tag = Event.tag_store || tag = Event.tag_ckpt then
      cache_store hier buf pos ~addr
    else if tag = Event.tag_flush then pos
    else (* atomic *) cache_store hier buf (cache_load hier buf pos ~addr) ~addr
  end

(* The next int the cache pass left for this core. *)
let[@inline always] next t =
  let v = Array.unsafe_get t.buf t.rd in
  t.rd <- t.rd + 1;
  v

(* ---- persist path ---- *)

(* Persist one store through PB -> path -> WPQ. [bytes] selects the
   persist granularity (8 for cWSP, 64 for Capri/ReplayCache); [logged]
   stores pay double drain service for the undo log write.
   Leaves the core-visible stall in [t.c.pstall]. *)
let persist_store t ~addr ~commit ~bytes ~logged ~use_redo ?(coalesce = false) () =
  let cfg = t.cfg in
  let gap = float_of_int bytes /. cfg.path_bandwidth_gbs in
  let buffer = if use_redo then t.redo else t.pb in
  pb_admit_send buffer ~ready:commit ~gap;
  let admit = Array.unsafe_get buffer.fs 1 and send = Array.unsafe_get buffer.fs 2 in
  let line = Layout.line_of_addr addr in
  let mc = Config.mc_of_line cfg line in
  let arrive = send +. cfg.path_latency_ns +. Array.unsafe_get t.sh.numa_ns mc in
  let drain_service =
    let per_entry = float_of_int bytes /. cfg.mem.write_bw_gbs in
    (* Line-granularity schemes (Capri/ReplayCache) coalesce consecutive
       writes to the same line at the media: back-to-back same-line
       entries merge into the pending line write. *)
    let per_entry =
      if coalesce && t.sh.mc_last_line.(mc) = line then per_entry /. 8.0
      else per_entry
    in
    t.sh.mc_last_line.(mc) <- line;
    (* Undo-log writes are append-only per region (Section V-B2), so they
       write-combine into full lines at the media: 8 log entries share one
       64-byte line write, costing 1/8 extra media bandwidth per entry. *)
    if logged then per_entry *. 1.125 else per_entry
  in
  let q = t.sh.wpqs.(mc) in
  Tsq.push_u q ~ready:arrive ~service:drain_service;
  let qts = Tsq.times q in
  let wpq_admit = Array.unsafe_get qts 1 and wpq_done = Array.unsafe_get qts 0 in
  (* the PB slot is held until the WPQ admits the entry (backpressure) *)
  pb_record_free buffer wpq_admit;
  let persist_time = wpq_admit in
  t.c.all_pm <- fmax t.c.all_pm persist_time;
  t.c.region_pm <- fmax t.c.region_pm persist_time;
  Imap.put t.sh.line_persist line persist_time;
  Imap.put t.sh.word_wpq_done addr wpq_done;
  t.stats.nvm_writes <- t.stats.nvm_writes + 1;
  if logged then t.stats.log_writes <- t.stats.log_writes + 1;
  t.c.pstall <- fmax 0.0 (admit -. commit)

(* ---- event handlers ---- *)

(* Returns the packed [Hierarchy.probe] code. *)
let handle_cache_write t =
  let code = next t in
  (if code land Hierarchy.l1_evict_bit <> 0 then begin
     let line = next t in
     (* the eviction enters the L1D write buffer; under cWSP's stale-read
        prevention it may not drain to L2 before the line has persisted *)
     let delay_start =
       match t.scheme with
       | Cwsp f when f.persist_path && f.wb_delay ->
         fmax t.c.now (Imap.find_def t.sh.line_persist line neg_infinity)
       | Baseline | Cwsp _ | Ido | Capri | Replaycache | Explicit_flush ->
         t.c.now
     in
     Tsq.push_u t.wb ~ready:delay_start ~service:t.cfg.wb_drain_ns;
     let admit = Array.unsafe_get (Tsq.times t.wb) 1 in
     let stall = fmax 0.0 (admit -. delay_start) in
     t.c.s_wb <- t.c.s_wb +. stall;
     t.c.now <- t.c.now +. stall
   end);
  t.c.wb_occ_sum <-
    t.c.wb_occ_sum +. float_of_int (Tsq.occupancy t.wb ~now:t.c.now);
  t.wb_occ_n <- t.wb_occ_n + 1;
  code

let handle_load t ~addr =
  t.stats.loads <- t.stats.loads + 1;
  let code = next t in
  let level = code land Hierarchy.level_mask in
  let serve_ns =
    if code land Hierarchy.from_memory_bit <> 0 then t.cfg.mem.read_ns
    else Array.unsafe_get t.hier.hit_ns level
  in
  let latency = if level = 0 then serve_ns else serve_ns /. t.cfg.mlp in
  t.c.now <- t.c.now +. t.cfg.cycle_ns +. latency;
  (* loads reaching main memory may hit a pending WPQ entry *)
  if code land Hierarchy.from_memory_bit <> 0 then begin
    let d = Imap.find_def t.sh.word_wpq_done addr neg_infinity in
    if d > t.c.now then begin
      t.stats.wpq_hits <- t.stats.wpq_hits + 1;
      let delays =
        match t.scheme with
        | Cwsp f -> f.persist_path && f.wpq_delay
        | Ido | Capri | Replaycache | Explicit_flush -> true
        | Baseline -> false
      in
      if delays then begin
        t.c.s_wpq_hit <- t.c.s_wpq_hit +. (d -. t.c.now);
        t.c.now <- d
      end
    end
  end

let handle_store t ~addr ~is_ckpt =
  if is_ckpt then t.stats.ckpt_stores <- t.stats.ckpt_stores + 1
  else t.stats.stores <- t.stats.stores + 1;
  let commit = t.c.now +. t.cfg.cycle_ns in
  t.c.now <- commit;
  let code = handle_cache_write t in
  match t.scheme with
  | Baseline -> ()
  | Cwsp f ->
    if f.persist_path then begin
      (* stores of speculative regions are undo-logged at the MC *)
      let logged = f.mc_speculation in
      persist_store t ~addr ~commit ~bytes:8 ~logged ~use_redo:false ();
      let stall = t.c.pstall in
      t.c.s_pb <- t.c.s_pb +. stall;
      t.c.now <- t.c.now +. stall
    end
  | Ido ->
    persist_store t ~addr ~commit ~bytes:8 ~logged:false ~use_redo:false ();
    let stall = t.c.pstall in
    t.c.s_pb <- t.c.s_pb +. stall;
    t.c.now <- t.c.now +. stall
  | Capri ->
    (* per-store dirty-cacheline copy into the redo buffer (one L1 port
       slot), then a 64B line + 8B of log metadata on the persist path;
       hardware redo+undo logging amplifies NVM writes (Section II-D) *)
    t.c.now <- t.c.now +. t.cfg.cycle_ns;
    persist_store t ~addr ~commit ~bytes:72 ~logged:true ~use_redo:true
      ~coalesce:true ();
    let stall = t.c.pstall in
    t.c.s_redo <- t.c.s_redo +. stall;
    t.c.now <- t.c.now +. stall;
    (* Capri scans the proxy buffer on DRAM-cache evictions and must wait
       the worst-case delivery latency (Section II-D) *)
    if code land Hierarchy.llc_evict_bit <> 0 then
      t.c.now <- t.c.now +. t.cfg.path_latency_ns
  | Replaycache ->
    (* software scheme: per-store instrumentation plus 64B write-through *)
    t.c.now <- t.c.now +. (2.0 *. t.cfg.cycle_ns);
    persist_store t ~addr ~commit ~bytes:64 ~logged:false ~use_redo:false
      ~coalesce:true ();
    let stall = t.c.pstall in
    t.c.s_pb <- t.c.s_pb +. stall;
    t.c.now <- t.c.now +. stall
  | Explicit_flush ->
    (* data stores stay in the cache until an explicit flush; only the
       register-checkpoint engine keeps the hardware persist path *)
    if is_ckpt then begin
      persist_store t ~addr ~commit ~bytes:8 ~logged:false ~use_redo:false ();
      let stall = t.c.pstall in
      t.c.s_pb <- t.c.s_pb +. stall;
      t.c.now <- t.c.now +. stall
    end

(* clwb-like line writeback: one issue cycle, then an asynchronous 64B
   line write down the persist path; the core stalls only on persist-
   buffer backpressure, never on the drain itself. *)
let handle_flush t ~addr =
  let commit = t.c.now +. t.cfg.cycle_ns in
  t.c.now <- commit;
  match t.scheme with
  | Explicit_flush ->
    persist_store t ~addr ~commit ~bytes:64 ~logged:false ~use_redo:false
      ~coalesce:true ();
    let stall = t.c.pstall in
    t.c.s_pb <- t.c.s_pb +. stall;
    t.c.now <- t.c.now +. stall
  | Baseline | Cwsp _ | Ido | Capri | Replaycache ->
    (* schemes with an implicit persist path treat the hint as a no-op *)
    ()

(* sfence-like persist fence: drains every outstanding flush. *)
let handle_pfence t =
  t.c.now <- t.c.now +. t.cfg.cycle_ns;
  match t.scheme with
  | Explicit_flush ->
    let stall = fmax 0.0 (t.c.all_pm -. t.c.now) in
    t.c.s_drain <- t.c.s_drain +. stall;
    t.c.now <- t.c.now +. stall
  | Baseline | Cwsp _ | Ido | Capri | Replaycache -> ()

let handle_boundary t =
  t.stats.boundaries <- t.stats.boundaries + 1;
  let completion = fmax t.c.now t.c.region_pm in
  (match t.scheme with
  | Baseline -> ()
  | Cwsp f when not f.persist_path -> ()
  | Cwsp f when f.mc_speculation ->
    let stall = rbt_push t.rbt ~now:t.c.now ~completion in
    t.c.s_rbt <- t.c.s_rbt +. stall;
    t.c.now <- t.c.now +. stall
  | Cwsp f when f.boundary_drain ->
    (* conservative prior-work behaviour (Section II-B): wait at the
       region end for the region's stores to persist *)
    let stall = fmax 0.0 (t.c.region_pm -. t.c.now) in
    t.c.s_drain <- t.c.s_drain +. stall;
    t.c.now <- t.c.now +. stall
  | Cwsp _ -> () (* unsafe asynchronous persistence: Fig. 15 stage 2 *)
  | Capri ->
    (* battery-backed redo buffer: region end is free; buffer
       backpressure was already charged per store. *)
    ()
  | Ido ->
    (* two persist barriers around every region boundary (Section I) *)
    let stall = fmax 0.0 (t.c.all_pm -. t.c.now) in
    t.c.s_drain <- t.c.s_drain +. stall +. (2.0 *. t.cfg.path_latency_ns);
    t.c.now <- t.c.now +. stall +. (2.0 *. t.cfg.path_latency_ns)
  | Replaycache ->
    (* software region-end flush: wait for everything outstanding *)
    let stall = fmax 0.0 (t.c.all_pm -. t.c.now) in
    t.c.s_drain <- t.c.s_drain +. stall +. (4.0 *. t.cfg.cycle_ns);
    t.c.now <- t.c.now +. stall +. (4.0 *. t.cfg.cycle_ns)
  | Explicit_flush ->
    (* the compiler's pfence already drained the region's data; the
       boundary only waits for its own register checkpoints *)
    let stall = fmax 0.0 (t.c.region_pm -. t.c.now) in
    t.c.s_drain <- t.c.s_drain +. stall;
    t.c.now <- t.c.now +. stall);
  t.c.region_pm <- t.c.now

(* [addr < 0] is a fence; otherwise the atomic's address (an [option]
   here would allocate per sync event). *)
let handle_sync t ~addr =
  (* atomics/fences: stores prior to the primitive must have persisted
     before it commits (Section VIII) *)
  (if addr >= 0 then begin
     t.stats.atomics <- t.stats.atomics + 1;
     (* a locked RMW is expensive on any machine, baseline included *)
     t.c.now <- t.c.now +. t.cfg.atomic_ns;
     handle_load t ~addr;
     handle_store t ~addr ~is_ckpt:false
   end
   else begin
     t.stats.fences <- t.stats.fences + 1;
     t.c.now <- t.c.now +. t.cfg.cycle_ns
   end);
  match t.scheme with
  | Baseline -> ()
  | Explicit_flush ->
    (* the atomic's own store bypassed the data cache-only rule: it is
       hardware failure-atomic, so it enters the persist path here *)
    (if addr >= 0 then begin
       persist_store t ~addr ~commit:t.c.now ~bytes:8 ~logged:false
         ~use_redo:false ();
       let stall = t.c.pstall in
       t.c.s_pb <- t.c.s_pb +. stall;
       t.c.now <- t.c.now +. stall
     end);
    let stall = fmax 0.0 (t.c.all_pm -. t.c.now) in
    t.c.s_sync <- t.c.s_sync +. stall;
    t.c.now <- t.c.now +. stall
  | Cwsp _ | Ido | Capri | Replaycache ->
    let stall = fmax 0.0 (t.c.all_pm -. t.c.now) in
    t.c.s_sync <- t.c.s_sync +. stall;
    t.c.now <- t.c.now +. stall

(* ---- main loop ---- *)

(* Epoch telemetry: every [epoch_mask + 1] replayed events the engine
   samples the cumulative stall breakdown and the instantaneous WB
   occupancy onto a per-run Perfetto counter track whose timeline is
   *simulated* microseconds — figures can show how stalls accumulate
   over a run, not just the totals. Samples never touch [Stats.t], so
   results are identical with tracing on or off. *)
let epoch_mask = 8191

let emit_epoch t track =
  let ts_us = t.c.now /. 1000.0 in
  Obs.counter_event ~pid:track ~name:"stall_ns" ~ts_us
    [
      ("pb", t.c.s_pb);
      ("rbt", t.c.s_rbt);
      ("drain", t.c.s_drain);
      ("sync", t.c.s_sync);
      ("wb", t.c.s_wb);
      ("wpq_hit", t.c.s_wpq_hit);
      ("redo", t.c.s_redo);
    ];
  Obs.counter_event ~pid:track ~name:"wb_occupancy" ~ts_us
    [ ("entries", float_of_int (Tsq.occupancy t.wb ~now:t.c.now)) ]

(* One event's timing: its tag, address and probe outcomes wait in
   [t.buf] from [t.rd] on. *)
let[@inline always] step t ~cycle_ns =
  let tag = next t in
  if tag = Event.tag_alu then t.c.now <- t.c.now +. cycle_ns
  else if tag = Event.tag_boundary then handle_boundary t
  else if tag = Event.tag_fence then handle_sync t ~addr:(-1)
  else if tag = Event.tag_pfence then handle_pfence t
  else begin
    let addr = next t in
    if tag = Event.tag_load then handle_load t ~addr
    else if tag = Event.tag_store then handle_store t ~addr ~is_ckpt:false
    else if tag = Event.tag_ckpt then handle_store t ~addr ~is_ckpt:true
    else if tag = Event.tag_flush then handle_flush t ~addr
    else handle_sync t ~addr
  end

(* Replay [t]'s events while its clock stays below [t.c.until] — or
   equal to it when [wins_tie] — leaving [t.pos] at the first event not
   replayed. Cores share the L2+ levels and the next core to step
   depends on the clocks, so each event's cache pass runs just before
   its timing. *)
let run_core t ~wins_tie ~track =
  let trace = t.trace in
  let n = Trace.length trace in
  let cycle_ns = t.cfg.cycle_ns in
  let i = ref t.pos in
  while !i < n && (t.c.now < t.c.until || (wins_tie && t.c.now = t.c.until)) do
    ignore (cache_event t.hier t.buf 0 (Trace.get trace !i));
    t.rd <- 0;
    step t ~cycle_ns;
    if track >= 0 && !i land epoch_mask = epoch_mask then emit_epoch t track;
    incr i
  done;
  t.pos <- !i

(* The timing pass of events [lo, hi), which the chunk's cache pass
   left in [t.buf]. The core is alone on its persist tables and its
   clock never falls, and both tables are only read against the clock:
   a line persisted by [now] delays no write-buffer drain past [now],
   and a word drained by [now] delays no load. Entries at or below the
   clock can change no result, so the pass drops them when a table
   fills, which keeps the tables of a group's points small. *)
let timing_pass t ~lo ~hi ~track =
  let cycle_ns = t.cfg.cycle_ns in
  t.rd <- 0;
  for i = lo to hi - 1 do
    step t ~cycle_ns;
    if track >= 0 && i land epoch_mask = epoch_mask then emit_epoch t track
  done;
  Imap.prune t.sh.line_persist ~floor:t.c.now;
  Imap.prune t.sh.word_wpq_done ~floor:t.c.now

type result = {
  per_core : Stats.t array;
  elapsed_ns : float; (* completion of the slowest core *)
}

(* [-1] each when tracing is off ([track < 0] is the single disabled-
   path branch per epoch check); otherwise one counter track per run,
   named [sim:<scheme>] plus [suffix i], inside a [replay:<label>]
   span. *)
let open_tracks names ~suffix ~label ~events =
  let n = Array.length names in
  if not !Obs.on then Array.make n (-1)
  else begin
    let tracks =
      Array.init n (fun i -> Obs.alloc_track ("sim:" ^ names.(i) ^ suffix i))
    in
    Obs.span_begin ~cat:"sim"
      ~args:
        [ ("events", float_of_int events); ("track", float_of_int tracks.(0)) ]
      ("replay:" ^ label);
    tracks
  end

(* Flush a finished run's clocks and cache counters into its stats. *)
let finish t ~track =
  t.stats.instructions <- Trace.length t.trace;
  clocks_flush t.c t.stats;
  Cwsp_util.Stats.Acc.add_sum t.stats.wb_occupancy ~sum:t.c.wb_occ_sum
    ~count:t.wb_occ_n;
  t.stats.nvm_reads <- t.hier.nvm_reads;
  t.stats.l1_miss_rate <- Hierarchy.l1_miss_rate t.hier;
  t.stats.llc_miss_rate <- Hierarchy.llc_miss_rate t.hier;
  if track >= 0 then emit_epoch t track

let run_traces (cfg : Config.t) (scheme : scheme) (traces : Trace.t array) :
    result =
  if Array.length traces = 0 then invalid_arg "Engine.run_traces: no traces";
  let sh = shared_create cfg in
  let hier = Hierarchy.create cfg in
  let cores =
    Array.mapi
      (fun i trace ->
        create cfg scheme sh
          (if i = 0 then hier else Hierarchy.sibling hier)
          (Array.make max_event_ints 0) trace)
      traces
  in
  let ncores = Array.length cores in
  let name = scheme_name scheme in
  let tracks =
    open_tracks (Array.make ncores name) ~label:name
      ~suffix:(fun i -> if ncores = 1 then "" else Printf.sprintf "#%d" i)
      ~events:(Array.fold_left (fun a tr -> a + Trace.length tr) 0 traces)
  in
  (* The live core with the smallest clock, ties to the lowest index;
     -1 when none. *)
  let earliest ~skip =
    let best = ref (-1) in
    for i = 0 to ncores - 1 do
      let c = cores.(i) in
      if
        i <> skip
        && c.pos < Trace.length c.trace
        && (!best < 0 || c.c.now < cores.(!best).c.now)
      then best := i
    done;
    !best
  in
  (* Global time order without a per-event scan: the earliest core keeps
     stepping until its clock passes the next-earliest live core's. With
     one core the bound is +inf and this is one replay loop. *)
  let rec loop () =
    let b = earliest ~skip:(-1) in
    if b >= 0 then begin
      let t = cores.(b) in
      let next = earliest ~skip:b in
      t.c.until <- (if next < 0 then infinity else cores.(next).c.now);
      run_core t ~wins_tie:(b < next) ~track:tracks.(b);
      loop ()
    end
  in
  loop ();
  Array.iteri (fun i t -> finish t ~track:tracks.(i)) cores;
  if tracks.(0) >= 0 then Obs.span_end ();
  {
    per_core = Array.map (fun t -> t.stats) cores;
    elapsed_ns = Array.fold_left (fun acc t -> fmax acc t.c.now) 0.0 cores;
  }

(* Events per chunk: the cache pass of one chunk and every point's
   timing pass over it share a buffer of at most [max_event_ints] ints
   per event, small enough to stay in the data caches. *)
let chunk = 2048

let run_points (points : (Config.t * scheme) array) (trace : Trace.t) :
    Stats.t array =
  let npoints = Array.length points in
  if npoints = 0 then [||]
  else begin
    let cfg0, _ = points.(0) in
    Array.iter
      (fun ((cfg : Config.t), _) ->
        if cfg.levels <> cfg0.levels then
          invalid_arg "Engine.run_points: points differ in their cache levels")
      points;
    let hier = Hierarchy.create cfg0 in
    let buf = Array.make (chunk * max_event_ints) 0 in
    let runs =
      Array.map
        (fun (cfg, scheme) ->
          create cfg scheme (shared_create cfg) hier buf trace)
        points
    in
    let names = Array.map (fun (_, scheme) -> scheme_name scheme) points in
    let n = Trace.length trace in
    let tracks =
      open_tracks names ~suffix:(fun _ -> "") ~events:n
        ~label:
          (if npoints = 1 then names.(0)
           else Printf.sprintf "%d points" npoints)
    in
    let lo = ref 0 in
    while !lo < n do
      let hi = min n (!lo + chunk) in
      let pos = ref 0 in
      for i = !lo to hi - 1 do
        pos := cache_event hier buf !pos (Trace.get trace i)
      done;
      Array.iteri (fun k t -> timing_pass t ~lo:!lo ~hi ~track:tracks.(k)) runs;
      lo := hi
    done;
    Array.iteri (fun k t -> finish t ~track:tracks.(k)) runs;
    if tracks.(0) >= 0 then Obs.span_end ();
    Array.map (fun t -> t.stats) runs
  end

let run_trace cfg scheme trace = (run_points [| (cfg, scheme) |] trace).(0)
