(** Design-choice ablations (extension): the alternatives DESIGN.md §5
    calls out, run head-to-head against full cWSP.

    - {b no MC speculation}: conservative region-end drains (the
      prior-work behaviour of Section II-B) instead of RBT admission;
    - {b no checkpoint pruning}: every live-out checkpointed (iDO-style
      compilation, Fig. 15 stage 5);
    - {b no scalar optimization}: the pipeline without the -O3-style
      passes — both binaries unoptimized, isolating how much instruction
      quality matters to the persistence overhead. *)

open Cwsp_compiler
open Cwsp_sim
open Cwsp_core

let title = "Ablation (extension): design choices vs full cWSP"

let no_opt_scheme : Cwsp_schemes.Schemes.t =
  {
    s_name = "cwsp-noopt";
    s_compile = { Pipeline.cwsp with optimize = false };
    s_engine = Engine.Cwsp Engine.cwsp_full;
    s_reconfig = (fun c -> c);
  }

let no_opt_baseline : Cwsp_schemes.Schemes.t =
  {
    s_name = "baseline-noopt";
    s_compile = { Pipeline.baseline with optimize = false };
    s_engine = Engine.Baseline;
    s_reconfig = (fun c -> c);
  }

(* unoptimized cWSP against an unoptimized baseline: isolates the
   persistence cost when both sides carry the same instruction bloat *)
let noopt_series =
  let cfg = Config.default in
  {
    Exp.col = "no-opt (both)";
    points =
      (fun w ->
        [ Job.stats w no_opt_baseline cfg; Job.stats w no_opt_scheme cfg ]);
    eval =
      (fun w ->
        Stats.slowdown
          (Api.stats w no_opt_scheme cfg)
          ~baseline:(Api.stats w no_opt_baseline cfg));
  }

let series =
  let cfg = Config.default in
  [
    Exp.slowdown_series "cWSP" Cwsp_schemes.Schemes.cwsp cfg;
    Exp.slowdown_series "no-MC-spec" Cwsp_schemes.Schemes.cwsp_no_speculation cfg;
    Exp.slowdown_series "no-pruning" Cwsp_schemes.Schemes.cwsp_no_prune cfg;
    noopt_series;
  ]

let plan () = Exp.plan series

let render () =
  Exp.banner title;
  Exp.per_suite_table ~series ()
