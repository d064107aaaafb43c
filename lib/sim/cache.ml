(** Set-associative write-back, write-allocate cache with LRU replacement.

    Tag storage is paged flat int arrays (DESIGN.md §12). A page holds
    whole sets, [page_ways] ways' worth: each entry packs the tag and
    dirty bit into one int ([tag lsl 1 lor dirty], -1 = invalid), and
    the page's LRU clocks follow its tags in the same array, so a probe
    is a handful of unboxed int loads. A page is allocated by the first
    probe that lands in it, so a replay's set-up cost and memory are
    proportional to the lines it touches, not to the cache's capacity
    (the 64MB direct-mapped DRAM cache is 1M ways). *)

type t = {
  level : Config.cache_level;
  nsets : int;
  assoc : int;
  set_mask : int; (* nsets - 1 when nsets is a power of two, else -1 *)
  tag_shift : int; (* log2 nsets when [set_mask >= 0] *)
  page_shift : int; (* log2 sets per page *)
  pages : int array array; (* [tags.. ; lrus..]; [||] until first probed *)
  mutable tick : int; (* LRU clock *)
  mutable hits : int;
  mutable misses : int;
  mutable last_dirty_evict : int; (* line address, -1 = none; see [probe] *)
}

let line_bytes = 64

(* Ways per tag-store page: 4KB of tags plus 4KB of LRU clocks. *)
let page_ways = 512

let create (level : Config.cache_level) =
  let nsets = max 1 (level.size_bytes / (line_bytes * level.assoc)) in
  let pow2 = nsets land (nsets - 1) = 0 in
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
  (* sets per page: as many whole sets as fit, rounded down to a power
     of two so a set index splits into page and offset by shifting *)
  let page_shift = log2 (max 1 (page_ways / level.assoc)) in
  {
    level;
    nsets;
    assoc = level.assoc;
    set_mask = (if pow2 then nsets - 1 else -1);
    tag_shift = (if pow2 then log2 nsets else 0);
    page_shift;
    pages = Array.make (((nsets - 1) lsr page_shift) + 1) [||];
    tick = 0;
    hits = 0;
    misses = 0;
    last_dirty_evict = -1;
  }

(* First probe of page [p]: all ways invalid with LRU clock 0. The last
   page holds only the sets that exist. *)
let alloc_page t p =
  let sets = min (1 lsl t.page_shift) (t.nsets - (p lsl t.page_shift)) in
  let ways = sets * t.assoc in
  let page = Array.make (2 * ways) (-1) in
  Array.fill page ways ways 0;
  t.pages.(p) <- page;
  page

(* Probe the [assoc] entries of one set starting at [base] in [page],
   whose LRU clocks sit [loff] entries after its tags. Closed over
   nothing, so no closure. *)
let[@inline] probe_set t page ~base ~loff ~set_idx ~tag ~write =
  let assoc = t.assoc in
  (* non-escaping refs compile to registers *)
  let found = ref (-1) in
  let i = ref 0 in
  while !found < 0 && !i < assoc do
    if Array.unsafe_get page (base + !i) asr 1 = tag then found := !i;
    incr i
  done;
  if !found >= 0 then begin
    let e = base + !found in
    t.hits <- t.hits + 1;
    Array.unsafe_set page (loff + e) t.tick;
    if write then
      Array.unsafe_set page e (Array.unsafe_get page e lor 1);
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (* victim: invalid way if any, else least-recently used
       (ties keep the lowest way index) *)
    let victim = ref 0 in
    let i = ref 0 in
    let stop = ref false in
    while (not !stop) && !i < assoc do
      if Array.unsafe_get page (base + !i) < 0 then begin
        victim := !i;
        stop := true
      end
      else begin
        if
          Array.unsafe_get page (loff + base + !i)
          < Array.unsafe_get page (loff + base + !victim)
        then victim := !i;
        incr i
      end
    done;
    let e = base + !victim in
    let old = Array.unsafe_get page e in
    if old >= 0 && old land 1 = 1 then
      t.last_dirty_evict <- (((old asr 1) * t.nsets) + set_idx) * line_bytes;
    Array.unsafe_set page e ((tag lsl 1) lor Bool.to_int write);
    Array.unsafe_set page (loff + e) t.tick;
    false
  end

(** The engines' hot path: returns whether the line containing [addr]
    hit, allocating it on miss; [write] marks it dirty. A dirty eviction
    leaves its line address in [last_dirty_evict] (-1 when none) until
    the next probe. Allocation-free except for the first probe of a
    page. *)
let probe t ~addr ~write : bool =
  t.tick <- t.tick + 1;
  t.last_dirty_evict <- -1;
  let line = addr / line_bytes in
  let set_idx, tag =
    if t.set_mask >= 0 then (line land t.set_mask, line lsr t.tag_shift)
    else (line mod t.nsets, line / t.nsets)
  in
  let p = set_idx lsr t.page_shift in
  let page = Array.unsafe_get t.pages p in
  let page = if Array.length page = 0 then alloc_page t p else page in
  probe_set t page
    ~base:((set_idx - (p lsl t.page_shift)) * t.assoc)
    ~loff:(Array.length page lsr 1) ~set_idx ~tag ~write

let last_dirty_evict t = t.last_dirty_evict

(** Mark a line dirty without an access (used for writebacks arriving from
    an upper level); allocates like a write access. *)
let install_dirty t ~line_addr = ignore (probe t ~addr:line_addr ~write:true)

let miss_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.misses /. float_of_int total
