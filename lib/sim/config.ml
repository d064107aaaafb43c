(** Machine configuration.

    Defaults reproduce the paper's evaluated platform (Section IX): a
    Skylake-class core, 64KB L1D + 16MB shared L2, a 4GB direct-mapped
    DRAM cache in front of 32GB PMEM (Intel memory mode), 2 memory
    controllers with 24-entry battery-backed WPQs, a 4GB/s 8-byte-granule
    persist path with 20ns latency, a 50-entry persist buffer and a
    16-entry region boundary table. *)

type cache_level = {
  cname : string;
  size_bytes : int;
  assoc : int; (* 1 = direct-mapped *)
  hit_ns : float;
}

type t = {
  levels : cache_level list; (* L1D first, LLC last *)
  wb_entries : int;          (* L1D write buffer entries *)
  wb_drain_ns : float;       (* service: WB head -> L2 *)
  mem : Nvm.t;               (* main memory behind the cache hierarchy *)
  n_mcs : int;
  numa_extra_ns : float array; (* extra persist-path latency per MC *)
  wpq_entries : int;
  path_bandwidth_gbs : float;
  path_latency_ns : float;
  pb_entries : int;
  rbt_entries : int;
  cycle_ns : float;          (* one pipeline slot *)
  atomic_ns : float;         (* intrinsic cost of a locked RMW (all schemes) *)
  mlp : float;               (* effective memory-level parallelism of the
                                OoO core: demand-miss latency is divided by
                                this before being charged to the timeline *)
}

let kib n = n * 1024
let mib n = n * 1024 * 1024

(* The hierarchy is scaled down ~64x from the paper's platform (64KB L1 /
   16MB L2 / 4GB DRAM cache) so that the synthetic workloads' megabyte
   footprints produce the same relative miss behaviour the paper's
   multi-gigabyte reference inputs produce on the full-size hierarchy.
   Latencies are kept at the paper's values — only capacities scale. *)
let l1d = { cname = "L1D"; size_bytes = kib 16; assoc = 8; hit_ns = 2.0 }
let l2_shared = { cname = "L2"; size_bytes = kib 256; assoc = 16; hit_ns = 22.0 }

(* private L2 + shared L3, the deeper hierarchy of Fig. 20 *)
let l2_private = { cname = "L2p"; size_bytes = kib 64; assoc = 8; hit_ns = 7.0 }
let l3_shared = { cname = "L3"; size_bytes = kib 256; assoc = 16; hit_ns = 22.0 }

(* L4 used in the Fig. 1 motivation sweep (paper: 128MB eDRAM-style) *)
let l4 = { cname = "L4"; size_bytes = mib 2; assoc = 16; hit_ns = 41.0 }

let dram_cache = { cname = "DRAM$"; size_bytes = mib 64; assoc = 1; hit_ns = 55.0 }

let default =
  {
    levels = [ l1d; l2_shared; dram_cache ];
    wb_entries = 32;
    wb_drain_ns = 4.0;
    mem = Nvm.pmem;
    n_mcs = 2;
    numa_extra_ns = [| 0.0; 30.0 |];
    wpq_entries = 24;
    path_bandwidth_gbs = 4.0;
    path_latency_ns = 20.0;
    pb_entries = 50;
    rbt_entries = 16;
    cycle_ns = 0.5;
    atomic_ns = 12.0;
    mlp = 4.0;
  }

(** Fig. 20 platform: private L2, shared L3, DRAM cache. *)
let with_l3 =
  { default with levels = [ l1d; l2_private; l3_shared; dram_cache ] }

(** Ideal partial-system persistence platform (Fig. 18): the DRAM cache
    cannot be enabled, so the hierarchy ends at the SRAM LLC and every
    miss goes to NVM. *)
let psp_no_dram_cache = { default with levels = [ l1d; l2_shared ] }

(** Fig. 1 hierarchies: 2..5 levels in front of the main memory. The
    5-level configuration appends the DRAM cache (64MB, the paper's 4GB
    scaled). *)
let fig1_levels n =
  let base =
    match n with
    | 2 -> [ l1d; l2_private ]
    | 3 -> [ l1d; l2_private; l3_shared ]
    | 4 -> [ l1d; l2_private; l3_shared; l4 ]
    | 5 -> [ l1d; l2_private; l3_shared; l4; dram_cache ]
    | _ -> invalid_arg "Config.fig1_levels: 2..5"
  in
  { default with levels = base }

(** CXL platform of Section IX-C: local DRAM as LLC atop a CXL device. *)
let cxl device = { default with mem = device }

(** Stable content fingerprint of a configuration, covering every field
    that affects simulation timing. Used as a memoization-key component so
    that two distinct platforms can never alias, no matter how an
    experiment labels them. *)
let fingerprint t =
  let buf = Buffer.create 128 in
  List.iter
    (fun l ->
      Buffer.add_string buf
        (Printf.sprintf "%s:%d:%d:%g;" l.cname l.size_bytes l.assoc l.hit_ns))
    t.levels;
  Buffer.add_string buf
    (Printf.sprintf "|wb%d:%g|%s:%g:%g:%g|mc%d" t.wb_entries t.wb_drain_ns
       t.mem.mem_name t.mem.read_ns t.mem.write_ns t.mem.write_bw_gbs t.n_mcs);
  Array.iter (fun x -> Buffer.add_string buf (Printf.sprintf ":%g" x))
    t.numa_extra_ns;
  Buffer.add_string buf
    (Printf.sprintf "|wpq%d|bw%g|lat%g|pb%d|rbt%d|cyc%g|at%g|mlp%g"
       t.wpq_entries t.path_bandwidth_gbs t.path_latency_ns t.pb_entries
       t.rbt_entries t.cycle_ns t.atomic_ns t.mlp);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(** Exact identity of the cache levels: points whose keys are equal
    replay one cache simulation ([Engine.run_points]). *)
let levels_key t =
  String.concat ";"
    (List.map
       (fun l ->
         Printf.sprintf "%s:%d:%d:%h" l.cname l.size_bytes l.assoc l.hit_ns)
       t.levels)

(* 256-byte channel interleave across memory controllers. *)
let mc_of_line t line_addr = (line_addr lsr 8) mod t.n_mcs
let numa_of_mc t mc =
  if mc < Array.length t.numa_extra_ns then t.numa_extra_ns.(mc) else 0.0
