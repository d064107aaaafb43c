(** Hardware undo logging at the memory controllers (Section V-B2).

    Each MC keeps the logs of stores arriving at it in its own local NVM
    space — no centralized logging, no inter-MC communication — managed
    as *append-only, per-region log arrays*:

    - append-only eliminates the Fig. 10(c) overwriting hazard: when two
      speculative regions store to the same address, both (address, old
      value) pairs survive, and reverse-chronological replay restores the
      value the oldest unpersisted region must observe;
    - per-region arrays make deallocation free of search cost: when a
      region turns non-speculative, its Region ID indexes the arrays to
      reclaim (the RBT head's MCBitVec tells which MCs to signal).

    Hardening (adversarial fault model): records are no longer trusted
    blindly. Each record carries a per-(MC, region) log sequence number,
    a checksum over every field replay trusts, and the checksum of the
    NEW value the store wrote (so recovery can audit whether a
    supposedly-persisted store actually reached NVM). Each (MC, region)
    array additionally keeps a durable count header, so a silently
    truncated tail is detectable even though the surviving records all
    verify. [audit_region] checks all three; the recovery harness uses it
    to decide whether a rollback boundary's logs can be trusted.

    The recovery harness drives this module exactly as the paper's
    recovery runtime drives the hardware: log on store arrival,
    deallocate on non-speculative transitions, and on power failure
    revert each MC's logs in reverse chronological region order. *)

type entry = {
  e_lsn : int;  (** append index within this (MC, region) array *)
  mutable e_addr : int;
  mutable e_old : int;
  e_new_sum : int;  (** checksum of the NEW value the store wrote *)
  mutable e_sum : int;  (** record checksum over (region, lsn, addr, old, new_sum) *)
}

let entry_ok ~region e =
  e.e_sum
  = Fault.record_sum ~region ~lsn:e.e_lsn ~addr:e.e_addr ~old:e.e_old
      ~new_sum:e.e_new_sum

(* One (MC, region) log array: its records, newest first, and its
   durable count header (appends so far). *)
type arr = { mutable es : entry list; mutable cnt : int }

type t = {
  n_mcs : int;
  arrays : (int, arr) Hashtbl.t array; (* per MC: region id -> array *)
  last_region : int array;
  last_arr : arr array;
    (* per MC: the array the previous [log] appended to. Stores arrive
       in runs of one region, so this skips the table on almost every
       append. Only ever aliases an array installed in [arrays]. *)
  mutable logged_entries : int; (* lifetime counter, for stats *)
}

let no_region = min_int
let no_arr = { es = []; cnt = 0 }

let create ~n_mcs =
  {
    n_mcs;
    arrays = Array.init n_mcs (fun _ -> Hashtbl.create 64);
    last_region = Array.make n_mcs no_region;
    last_arr = Array.make n_mcs no_arr;
    logged_entries = 0;
  }

let mc_of t addr = (addr lsr 8) mod t.n_mcs
let n_mcs t = t.n_mcs

let find_arr t mc region =
  if t.last_region.(mc) = region then t.last_arr.(mc)
  else begin
    let a =
      match Hashtbl.find t.arrays.(mc) region with
      | a -> a
      | exception Not_found ->
        let a = { es = []; cnt = 0 } in
        Hashtbl.add t.arrays.(mc) region a;
        a
    in
    t.last_region.(mc) <- region;
    t.last_arr.(mc) <- a;
    a
  end

let entries_of t mc region =
  match Hashtbl.find_opt t.arrays.(mc) region with
  | Some a -> a.es
  | None -> []

let forget t mc =
  t.last_region.(mc) <- no_region;
  t.last_arr.(mc) <- no_arr

(** A store of region [region] arrived at its MC: undo-log it. [value] is
    the new value being stored; only its checksum is kept. *)
let log t ~region ~addr ~old ~value =
  let a = find_arr t (mc_of t addr) region in
  let lsn = a.cnt in
  let new_sum = Fault.value_sum value in
  a.es <-
    {
      e_lsn = lsn;
      e_addr = addr;
      e_old = old;
      e_new_sum = new_sum;
      e_sum = Fault.record_sum ~region ~lsn ~addr ~old ~new_sum;
    }
    :: a.es;
  a.cnt <- lsn + 1;
  t.logged_entries <- t.logged_entries + 1

(** The region became non-speculative: its own logs are no longer needed
    for recovery and every MC reclaims the region's array (and header). *)
let deallocate t ~region =
  for mc = 0 to t.n_mcs - 1 do
    Hashtbl.remove t.arrays.(mc) region;
    if t.last_region.(mc) = region then forget t mc
  done

(** Entries of one region across all MCs, newest first (program order is
    preserved per location because a location always maps to one MC). *)
let region_entries t ~region =
  List.concat (List.init t.n_mcs (fun mc -> entries_of t mc region))

(** Drop all logs and headers — recovery's final truncation step. *)
let reset t =
  Array.iteri (fun mc tbl -> Hashtbl.reset tbl; forget t mc) t.arrays

(** Structural copy sharing no mutable state with [t] — recovery
    experiments snapshot the surviving log image at the crash point. *)
let copy t =
  {
    n_mcs = t.n_mcs;
    arrays =
      Array.map
        (fun tbl ->
          let c = Hashtbl.copy tbl in
          Hashtbl.iter
            (fun r a ->
              Hashtbl.replace c r
                { es = List.map (fun e -> { e with e_lsn = e.e_lsn }) a.es;
                  cnt = a.cnt })
            tbl;
          c)
        t.arrays;
    last_region = Array.make t.n_mcs no_region;
    last_arr = Array.make t.n_mcs no_arr;
    logged_entries = t.logged_entries;
  }

(** The records of [regions] in undo order: newest (highest id) region
    first, each region's records newest first per MC. *)
let undo_order t ~regions =
  List.sort (fun a b -> compare b a) regions
  |> List.concat_map (fun r -> List.map (fun e -> (r, e)) (region_entries t ~region:r))

(** Live (not yet deallocated) entries — bounded in hardware because each
    region holds only a handful of stores and the number of concurrently
    speculative regions is capped by the RBT size (Section V-B2). *)
let live_entries t =
  Array.fold_left
    (fun acc tbl -> Hashtbl.fold (fun _ a acc -> acc + List.length a.es) tbl acc)
    0 t.arrays

(** Audit of one region's logs across all MCs. Three independent damage
    signals: [au_structural] — the durable count header disagrees with
    the record count, or the LSN sequence has a gap (records are
    *missing*, so the region's write set is unknowable); [au_bad] —
    records whose checksum fails (present but not trustworthy). A region
    with neither is verified. *)
type audit = { au_structural : string list; au_bad : entry list }

let audit_region t ~region =
  let structural = ref [] and bad = ref [] in
  for mc = 0 to t.n_mcs - 1 do
    let es, header =
      match Hashtbl.find_opt t.arrays.(mc) region with
      | Some a -> (a.es, a.cnt)
      | None -> ([], 0)
    in
    let n = List.length es in
    if n <> header then
      structural :=
        Printf.sprintf "mc%d region %d: count header %d but %d records" mc
          region header n
        :: !structural;
    (* Newest first, so LSNs must read header-1, header-2, ..., 0. A bad
       record's LSN cannot be trusted for gap analysis, so gaps are
       judged on the positions of GOOD records only. *)
    let good = List.filter (entry_ok ~region) es in
    List.iter (fun e -> if not (entry_ok ~region e) then bad := e :: !bad) es;
    let expect = ref (n - 1) in
    List.iter
      (fun e ->
        if List.memq e good then begin
          if e.e_lsn <> !expect then
            structural :=
              Printf.sprintf "mc%d region %d: lsn %d where %d expected" mc
                region e.e_lsn !expect
              :: !structural
        end;
        decr expect)
      es
  done;
  { au_structural = !structural; au_bad = !bad }

(* ------------------------------------------------------------------ *)
(* Fault injectors (adversarial campaign). These model damage to the   *)
(* MC's local NVM log space itself, not to the data it protects.       *)
(* ------------------------------------------------------------------ *)

(** Silently remove the newest [k] records of one (MC, region) array
    WITHOUT updating the durable count header — a truncated persist of
    the log tail. Returns a description, or [None] if no region in
    [regions] has a record. *)
let inject_drop_tail t rng ~regions =
  let candidates =
    List.concat_map
      (fun r ->
        List.filteri (fun mc _ -> entries_of t mc r <> [])
          (List.init t.n_mcs (fun mc -> (mc, r))))
      regions
  in
  match candidates with
  | [] -> None
  | _ ->
      let mc, r = List.nth candidates (Cwsp_util.Rng.int rng (List.length candidates)) in
      let a = Hashtbl.find t.arrays.(mc) r in
      let k = 1 + Cwsp_util.Rng.int rng (List.length a.es) in
      let rec drop k es = if k = 0 then es else drop (k - 1) (List.tl es) in
      a.es <- drop k a.es;
      Some (Printf.sprintf "dropped %d newest log records of mc%d region %d" k mc r)

(** Corrupt one record of one region in [regions]: flip a bit in its
    address, old value, or checksum, or remove it from the middle of the
    list (header intact, LSN gap). Returns a description, or [None] if
    there is nothing to corrupt. *)
let inject_corrupt t rng ~regions =
  let candidates =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun mc ->
            if entries_of t mc r <> [] then Some (mc, r) else None)
          (List.init t.n_mcs (fun mc -> mc)))
      regions
  in
  match candidates with
  | [] -> None
  | _ ->
      let mc, r = List.nth candidates (Cwsp_util.Rng.int rng (List.length candidates)) in
      let a = Hashtbl.find t.arrays.(mc) r in
      let es = a.es in
      let i = Cwsp_util.Rng.int rng (List.length es) in
      let e = List.nth es i in
      (match Cwsp_util.Rng.int rng 4 with
      | 0 ->
          e.e_addr <- Fault.flip_bit rng e.e_addr;
          Some (Printf.sprintf "flipped addr bit of record lsn=%d mc%d region %d" e.e_lsn mc r)
      | 1 ->
          e.e_old <- Fault.flip_bit rng e.e_old;
          Some (Printf.sprintf "flipped old-value bit of record lsn=%d mc%d region %d" e.e_lsn mc r)
      | 2 ->
          e.e_sum <- Fault.flip_bit rng e.e_sum;
          Some (Printf.sprintf "flipped checksum bit of record lsn=%d mc%d region %d" e.e_lsn mc r)
      | _ ->
          a.es <- List.filteri (fun j _ -> j <> i) es;
          Some (Printf.sprintf "removed record lsn=%d from mc%d region %d (header intact)" e.e_lsn mc r))
