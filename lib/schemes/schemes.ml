(** Persistence schemes: each pairs a compile configuration with a timing
    model and an optional platform change, reproducing the systems the
    paper evaluates against (Sections II, IX-A, IX-D).

    | scheme      | binary          | hardware model                          |
    |-------------|-----------------|------------------------------------------|
    | baseline    | uninstrumented  | no crash consistency                     |
    | cWSP        | regions+pruned  | 8B persist path, RBT speculation, logging |
    | iDO         | regions+ckpts   | persist barriers at every region end      |
    | Capri       | regions only    | 64B redo buffers, battery-backed, 8x amp  |
    | ReplayCache | regions+ckpts   | software write-through, region-end flush  |
    | ideal PSP   | uninstrumented  | eADR/BBB/LightPC: DRAM cache disabled     | *)

open Cwsp_compiler
open Cwsp_sim

type t = {
  s_name : string;
  s_compile : Pipeline.config;
  s_engine : Engine.scheme;
  s_reconfig : Config.t -> Config.t;
}

let id_config c = c

let baseline =
  {
    s_name = "baseline";
    s_compile = Pipeline.baseline;
    s_engine = Engine.Baseline;
    s_reconfig = id_config;
  }

let cwsp =
  {
    s_name = "cwsp";
    s_compile = Pipeline.cwsp;
    s_engine = Engine.Cwsp Engine.cwsp_full;
    s_reconfig = id_config;
  }

(** cWSP built without checkpoint pruning (Fig. 15 stage 5). *)
let cwsp_no_prune =
  {
    s_name = "cwsp-no-prune";
    s_compile = Pipeline.cwsp_no_prune;
    s_engine = Engine.Cwsp Engine.cwsp_full;
    s_reconfig = id_config;
  }

(** cWSP without MC speculation: conservative region-end drains, the
    prior-work behaviour of Section II-B — an extra ablation point. *)
let cwsp_no_speculation =
  {
    s_name = "cwsp-no-spec";
    s_compile = Pipeline.cwsp;
    s_engine =
      Engine.Cwsp
        { Engine.cwsp_full with mc_speculation = false; boundary_drain = true };
    s_reconfig = id_config;
  }

let ido =
  {
    s_name = "ido";
    s_compile = Pipeline.cwsp_no_prune;
    s_engine = Engine.Ido;
    s_reconfig = id_config;
  }

let capri =
  {
    s_name = "capri";
    s_compile = Pipeline.regions_only;
    s_engine = Engine.Capri;
    s_reconfig = id_config;
  }

let replaycache =
  {
    s_name = "replaycache";
    s_compile = Pipeline.cwsp_no_prune;
    s_engine = Engine.Replaycache;
    s_reconfig = id_config;
  }

(** Ideal partial-system persistence (BBB / eADR / LightPC, Fig. 18): no
    persist-path costs at all (batteries cover everything), but the DRAM
    cache cannot be enabled, so the hierarchy ends at the SRAM LLC. *)
let psp_ideal =
  {
    s_name = "psp-ideal";
    s_compile = Pipeline.baseline;
    s_engine = Engine.Baseline;
    s_reconfig =
      (fun c ->
        match c.Config.levels with
        | [] -> c
        | levels ->
          let without_dram =
            List.filter (fun (l : Config.cache_level) -> l.cname <> "DRAM$") levels
          in
          { c with levels = without_dram });
  }

(** Compiler-directed explicit persistency: the [Persist_insert] binary
    (clwb/pfence sequences proven sufficient and minimal by
    [Persist_check]) on hardware without the cWSP persist path — data
    stores stay cached until flushed; register checkpoints keep their
    hardware path. The head-to-head for the paper's implicit-persistence
    thesis: what the same regions cost when the compiler must persist
    every store explicitly. *)
let explicit_flush =
  {
    s_name = "explicit-flush";
    s_compile = Pipeline.cwsp_explicit;
    s_engine = Engine.Explicit_flush;
    s_reconfig = id_config;
  }

(** The six cumulative stages of the Fig. 15 ablation. *)
let fig15_stages : (string * t) list =
  let stage name compile flags =
    ( name,
      {
        s_name = name;
        s_compile = compile;
        s_engine = Engine.Cwsp flags;
        s_reconfig = id_config;
      } )
  in
  let open Engine in
  [
    stage "+RegionFormation" Pipeline.cwsp_no_prune cwsp_flags_none;
    stage "+PersistPath" Pipeline.cwsp_no_prune
      { cwsp_flags_none with persist_path = true };
    stage "+MCSpeculation" Pipeline.cwsp_no_prune
      { cwsp_flags_none with persist_path = true; mc_speculation = true };
    stage "+WBDelay" Pipeline.cwsp_no_prune
      {
        cwsp_flags_none with
        persist_path = true;
        mc_speculation = true;
        wb_delay = true;
      };
    stage "+WPQDelay" Pipeline.cwsp_no_prune cwsp_full;
    stage "+Pruning" Pipeline.cwsp cwsp_full;
  ]
