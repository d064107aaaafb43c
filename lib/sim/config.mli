(** Machine configuration. Defaults reproduce the paper's platform
    (Section IX) with capacities scaled 64x down to match the synthetic
    workloads (EXPERIMENTS.md): L1D + shared L2 + DRAM cache in front of
    PMEM, 2 memory controllers with battery-backed WPQs, a 4GB/s 8-byte
    persist path, a 50-entry persist buffer and a 16-entry RBT. *)

type cache_level = {
  cname : string;
  size_bytes : int;
  assoc : int; (** 1 = direct-mapped *)
  hit_ns : float;
}

type t = {
  levels : cache_level list;   (** L1D first, LLC last *)
  wb_entries : int;            (** L1D write-buffer entries *)
  wb_drain_ns : float;         (** service: WB head -> L2 *)
  mem : Nvm.t;                 (** main memory behind the hierarchy *)
  n_mcs : int;
  numa_extra_ns : float array; (** extra persist-path latency per MC *)
  wpq_entries : int;
  path_bandwidth_gbs : float;
  path_latency_ns : float;
  pb_entries : int;
  rbt_entries : int;
  cycle_ns : float;            (** one pipeline slot *)
  atomic_ns : float;           (** intrinsic locked-RMW cost (all schemes) *)
  mlp : float;                 (** demand-miss latency is divided by this *)
}

val kib : int -> int
val mib : int -> int

val l1d : cache_level
val l2_shared : cache_level
val l2_private : cache_level
val l3_shared : cache_level
val l4 : cache_level
val dram_cache : cache_level

(** The paper's default platform (PMEM memory mode). *)
val default : t

(** Fig. 20: private L2 + shared L3 in front of the DRAM cache. *)
val with_l3 : t

(** Ideal PSP platform (Fig. 18): hierarchy ends at the SRAM LLC. *)
val psp_no_dram_cache : t

(** Fig. 1 hierarchies: 2..5 levels in front of main memory. *)
val fig1_levels : int -> t

(** CXL platform of Section IX-C. *)
val cxl : Nvm.t -> t

(** Stable content fingerprint covering every timing-relevant field; a
    memoization-key component (two distinct platforms can never alias). *)
val fingerprint : t -> string

(** Exact identity of [levels] (floats in hex): two configurations with
    equal keys simulate the same caches, so [Engine.run_points] can
    replay them together. *)
val levels_key : t -> string

(** 256-byte channel interleave across memory controllers. *)
val mc_of_line : t -> int -> int

val numa_of_mc : t -> int -> float
