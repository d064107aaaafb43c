(** The unit of work of the plan/execute/render architecture: a pure
    description of one simulation point. Figure drivers {e declare} jobs
    (plan), [Executor] deduplicates and replays them across a domain pool
    (execute), and drivers then format tables from the memoized results
    in deterministic order (render).

    Two kinds of points exist: [Stats] — replay a workload's trace under
    a scheme on a platform (the vast majority of the evaluation) — and
    [Trace] — generate a compiled binary's commit trace without timing
    it (Fig. 19 region statistics, the recovery harness's input). *)

open Cwsp_compiler
open Cwsp_sim
open Cwsp_workloads

type spec =
  | Stats of { scheme : Cwsp_schemes.Schemes.t; cfg : Config.t }
  | Trace of { compile : Pipeline.config }

type t = { workload : Defs.t; scale : int; spec : spec }

let stats ?(scale = 1) (w : Defs.t) (scheme : Cwsp_schemes.Schemes.t)
    (cfg : Config.t) =
  { workload = w; scale; spec = Stats { scheme; cfg } }

(** The two stats points [Api.slowdown] consumes: the scheme and the
    uninstrumented baseline on the same platform. *)
let slowdown ?(scale = 1) (w : Defs.t) ~(scheme : Cwsp_schemes.Schemes.t)
    (cfg : Config.t) =
  [
    stats ~scale w Cwsp_schemes.Schemes.baseline cfg;
    stats ~scale w scheme cfg;
  ]

let trace ?(scale = 1) (w : Defs.t) (compile : Pipeline.config) =
  { workload = w; scale; spec = Trace { compile } }

(** Identity of the job's end result — [Api]'s memo key. Deduplication
    and result lookup both go through this. *)
let key (j : t) : string =
  match j.spec with
  | Stats { scheme; cfg } ->
    let w, sc, s, fp = Api.stats_key ~scale:j.scale j.workload scheme cfg in
    Printf.sprintf "stats/%s@%d/%s/%s" w sc s fp
  | Trace { compile } ->
    let w, sc, cc = Api.binary_key ~scale:j.scale j.workload compile in
    Printf.sprintf "trace/%s@%d/%s" w sc cc

(** Identity of the trace the job replays — jobs sharing a trace key are
    grouped so each (workload, compile config, scale) trace is generated
    exactly once before the timing runs fan out. *)
let trace_key (j : t) : string =
  let compile =
    match j.spec with
    | Stats { scheme; _ } -> scheme.s_compile
    | Trace { compile } -> compile
  in
  let w, sc, cc = Api.binary_key ~scale:j.scale j.workload compile in
  Printf.sprintf "%s@%d/%s" w sc cc

(** Identity of the job's replay group: stats jobs that replay one trace
    on one cache hierarchy (the reconfigured platform's [levels]) share
    it; a trace job is a group of its own. *)
let group_key (j : t) : string =
  match j.spec with
  | Stats { scheme; cfg } ->
    trace_key j ^ "/" ^ Config.levels_key (scheme.s_reconfig cfg)
  | Trace _ -> key j

(** Run the job to completion through [Api]'s memoized entry points. *)
let execute (j : t) : unit =
  match j.spec with
  | Stats { scheme; cfg } ->
    ignore (Api.stats ~scale:j.scale j.workload scheme cfg)
  | Trace { compile } -> ignore (Api.trace ~scale:j.scale j.workload compile)

(** Run a replay group (jobs with one [group_key]) to completion: a
    stats group through one [Api.stats_group]. *)
let execute_group (js : t list) : unit =
  match js with
  | [] -> ()
  | [ j ] -> execute j
  | j :: _ ->
    ignore
      (Api.stats_group ~scale:j.scale j.workload
         (List.map
            (fun (j : t) ->
              match j.spec with
              | Stats { scheme; cfg } -> (scheme, cfg)
              | Trace _ ->
                invalid_arg "Job.execute_group: a trace job groups alone")
            js))

(** Generate (only) the job's trace — phase one of the executor. *)
let execute_trace (j : t) : unit =
  match j.spec with
  | Stats { scheme; _ } ->
    ignore (Api.trace ~scale:j.scale j.workload scheme.s_compile)
  | Trace { compile } -> ignore (Api.trace ~scale:j.scale j.workload compile)
