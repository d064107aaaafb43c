(** The cache hierarchy walker: a core's private L1 in front of the
    shared levels (L2 and deeper).

    Maintains one [Cache.t] per configured level; an access is served by
    the first hitting level (charged that level's latency) and allocates
    the line in every level above. Dirty evictions from the L1 are
    surfaced to the engine (they enter the L1D write buffer, which the
    stale-read machinery of Section V-A1 delays); dirty evictions from
    inner levels are installed one level down; dirty evictions from the
    LLC are counted — under persist-path schemes they are silently dropped
    (the data already traveled the persist path), in the baseline they are
    plain memory write-backs. *)

type t = {
  cfg : Config.t;
  l1 : Cache.t;
  shared : Cache.t array; (* L2 and deeper; the same caches on every core *)
  hit_ns : float array; (* per level, L1 first *)
  mutable nvm_reads : int;
  mutable llc_dirty_evictions : int;
  mutable last_l1_evict : int; (* line address, -1 = none; see [probe] *)
}

let create (cfg : Config.t) =
  match cfg.levels with
  | [] -> invalid_arg "Hierarchy.create: empty hierarchy"
  | l1 :: shared ->
    {
      cfg;
      l1 = Cache.create l1;
      shared = Array.of_list (List.map Cache.create shared);
      hit_ns =
        Array.of_list
          (List.map (fun (l : Config.cache_level) -> l.hit_ns) cfg.levels);
      nvm_reads = 0;
      llc_dirty_evictions = 0;
      last_l1_evict = -1;
    }

let sibling t =
  {
    t with
    l1 = Cache.create (List.hd t.cfg.levels);
    nvm_reads = 0;
    llc_dirty_evictions = 0;
    last_l1_evict = -1;
  }

(* packed [probe] result *)
let level_mask = 63
let from_memory_bit = 64
let l1_evict_bit = 128
let llc_evict_bit = 256

(* Walk the shared levels from index [i] (hierarchy level [i + 1]).
   Top-level (closed) recursion: a local [let rec] capturing [t]/[addr]
   would allocate a closure on every access. *)
let rec probe_shared t ~addr n i flags =
  if i >= n then begin
    t.nvm_reads <- t.nvm_reads + 1;
    (n + 1) lor from_memory_bit lor flags
  end
  else begin
    let c = t.shared.(i) in
    let hit = Cache.probe c ~addr ~write:false in
    let line = Cache.last_dirty_evict c in
    let flags =
      if line < 0 then flags
      else if i = n - 1 then begin
        t.llc_dirty_evictions <- t.llc_dirty_evictions + 1;
        flags lor llc_evict_bit
      end
      else begin
        Cache.install_dirty t.shared.(i + 1) ~line_addr:line;
        flags
      end
    in
    if hit then (i + 1) lor flags else probe_shared t ~addr n (i + 1) flags
  end

(** Allocation-free access (the engine's hot path): the result packs the
    0-based hit level ([land level_mask]; = number of levels when served
    by memory) with the [from_memory_bit] / [l1_evict_bit] /
    [llc_evict_bit] flags. A dirty L1 eviction leaves its line address
    in [last_l1_evict] until the next probe; the serving latency is
    [hit_ns.(level)] (or [cfg.mem.read_ns] from memory), which the
    caller reads directly so no float crosses the call boundary. *)
let probe t ~addr ~write : int =
  let hit = Cache.probe t.l1 ~addr ~write in
  let line = Cache.last_dirty_evict t.l1 in
  t.last_l1_evict <- line;
  let flags = if line < 0 then 0 else l1_evict_bit in
  if hit then flags
  else probe_shared t ~addr (Array.length t.shared) 0 flags

let last_l1_evict t = t.last_l1_evict

(** A writeback arriving from the L1D write buffer installs into L2 (or
    is dropped to memory accounting when the L1 is the only level). *)
let wb_install t ~line_addr =
  if Array.length t.shared > 0 then Cache.install_dirty t.shared.(0) ~line_addr

let l1_miss_rate t = Cache.miss_rate t.l1

let llc_miss_rate t =
  let n = Array.length t.shared in
  Cache.miss_rate (if n = 0 then t.l1 else t.shared.(n - 1))
