(** The unit of work of the plan/execute/render architecture: a pure
    description of one simulation point (see DESIGN.md §5). *)

open Cwsp_compiler
open Cwsp_sim
open Cwsp_workloads

type spec =
  | Stats of { scheme : Cwsp_schemes.Schemes.t; cfg : Config.t }
      (** replay the workload's trace under [scheme] on [cfg] *)
  | Trace of { compile : Pipeline.config }
      (** generate the commit trace only (Fig. 19, recovery) *)

type t = { workload : Defs.t; scale : int; spec : spec }

val stats : ?scale:int -> Defs.t -> Cwsp_schemes.Schemes.t -> Config.t -> t

(** The two stats points [Api.slowdown] consumes: scheme + baseline on
    the same platform. *)
val slowdown :
  ?scale:int -> Defs.t -> scheme:Cwsp_schemes.Schemes.t -> Config.t -> t list

val trace : ?scale:int -> Defs.t -> Pipeline.config -> t

(** Identity of the job's end result (the [Api] memo key); dedup goes
    through this. *)
val key : t -> string

(** Identity of the trace the job replays; jobs sharing it are grouped so
    each trace is generated once. *)
val trace_key : t -> string

(** Identity of the job's replay group: stats jobs that replay one trace
    on one cache hierarchy (trace key plus the reconfigured platform's
    [levels]) share it; a trace job is a group of its own. *)
val group_key : t -> string

(** Run the job to completion through [Api]'s memoized entry points. *)
val execute : t -> unit

(** Run the jobs of one replay group: stats jobs through one
    [Api.stats_group] (one cache simulation for all of them). *)
val execute_group : t list -> unit

(** Generate (only) the job's trace — phase one of the executor. *)
val execute_trace : t -> unit
