(** The public one-stop API: compile a workload, trace it once, replay the
    trace under any scheme/platform, and compare against the baseline.

    Compiled binaries and traces are memoized per (workload, scale,
    compile config); timing statistics per (workload, scale, scheme,
    platform fingerprint) — the platform key is a content hash of the
    full [Config.t] ([Config.fingerprint]), so two experiments can never
    alias a cache entry by reusing a label string for different
    platforms.

    All three caches are mutex-protected [Store.t]s, so any layer may be
    called from multiple domains; the executor ([Executor]) relies on
    this to replay jobs in parallel. Memoized values are shared
    read-only after insertion: a [Trace.t] is append-only and complete
    when stored, and a [Stats.t] is only mutated by the engine run that
    produces it. *)

open Cwsp_interp
open Cwsp_compiler
open Cwsp_sim
open Cwsp_workloads

(* (workload, scale, compile-config name) *)
type binary_key = string * int * string

(* (workload, scale, scheme name, platform fingerprint) *)
type stats_key = string * int * string * string

let compiled_cache : (binary_key, Pipeline.compiled) Store.t = Store.create 64
let trace_cache : (binary_key, Trace.t) Store.t = Store.create 64
let stats_cache : (stats_key, Stats.t) Store.t = Store.create 256

let binary_key ?(scale = 1) (w : Defs.t) (cc : Pipeline.config) : binary_key =
  (w.name, scale, Pipeline.config_name cc)

let stats_key ?(scale = 1) (w : Defs.t) (s : Cwsp_schemes.Schemes.t)
    (cfg : Config.t) : stats_key =
  (* fingerprint the platform the engine actually runs: the scheme's
     reconfiguration applied to the experiment's configuration *)
  (w.name, scale, s.s_name, Config.fingerprint (s.s_reconfig cfg))

(** Compile a workload under a compile configuration (memoized). *)
let compiled ?(scale = 1) (w : Defs.t) (cc : Pipeline.config) :
    Pipeline.compiled =
  Store.memo compiled_cache (binary_key ~scale w cc) (fun () ->
      Pipeline.compile ~config:cc (w.build ~scale))

(** Functional commit trace of a workload under a compile configuration
    (memoized). Runs the decoded core ([Cwsp_ir.Decode]); [test_decode]
    checks it against the reference interpreter registry-wide. *)
let trace ?(scale = 1) (w : Defs.t) (cc : Pipeline.config) : Trace.t =
  Store.memo trace_cache (binary_key ~scale w cc) (fun () ->
      let c = compiled ~scale w cc in
      snd (Cwsp_ir.Decode.trace_of_program c.prog))

(** Timing statistics of points that replay one trace on one cache
    hierarchy: every scheme has the same compile configuration and every
    reconfigured platform the same [levels]. Each point makes [stats]'s
    memo lookups — a stats hit, or a stats miss then a trace hit — and
    the misses replay together in one [Engine.run_points], which
    simulates the caches once for all of them. *)
let stats_group ?(scale = 1) (w : Defs.t)
    (points : (Cwsp_schemes.Schemes.t * Config.t) list) : Stats.t list =
  let looked =
    List.map
      (fun ((s : Cwsp_schemes.Schemes.t), cfg) ->
        let key = stats_key ~scale w s cfg in
        match Store.lookup stats_cache key with
        | Some st -> Either.Left st
        | None ->
          Either.Right
            (key, trace ~scale w s.s_compile, (s.s_reconfig cfg, s.s_engine)))
      points
  in
  let missing = List.filter_map Either.find_right looked in
  let replayed =
    match missing with
    | [] -> []
    | (_, tr, _) :: _ ->
      if List.exists (fun (_, tr', _) -> tr' != tr) missing then
        invalid_arg "Api.stats_group: points replay different traces";
      let stats =
        Engine.run_points
          (Array.of_list (List.map (fun (_, _, p) -> p) missing))
          tr
      in
      List.mapi
        (fun i (key, _, _) -> Store.add stats_cache key stats.(i))
        missing
  in
  (* the memoized points in place, the replayed ones in order between *)
  let rec merge looked replayed =
    match (looked, replayed) with
    | [], _ -> []
    | Either.Left st :: looked, replayed -> st :: merge looked replayed
    | Either.Right _ :: looked, st :: replayed -> st :: merge looked replayed
    | Either.Right _ :: _, [] -> assert false (* one result per miss *)
  in
  merge looked replayed

(** Timing statistics of a workload under a scheme on a platform: the
    one-point group. *)
let stats ?(scale = 1) (w : Defs.t) (s : Cwsp_schemes.Schemes.t)
    (cfg : Config.t) : Stats.t =
  List.hd (stats_group ~scale w [ (s, cfg) ])

(** Normalized slowdown of [scheme] against the uninstrumented baseline on
    the *same* platform (the baseline never gets the scheme's platform
    restriction — e.g. ideal PSP is normalized against the DRAM-cache
    baseline, as in Fig. 18). *)
let slowdown ?(scale = 1) (w : Defs.t) ~(scheme : Cwsp_schemes.Schemes.t)
    (cfg : Config.t) : float =
  let base = stats ~scale w Cwsp_schemes.Schemes.baseline cfg in
  let st = stats ~scale w scheme cfg in
  Stats.slowdown st ~baseline:base

(** Per-cache memo effectiveness: (name, traffic counters, entries).
    [bench/main.exe] prints this in its end-of-run summary; the obs
    gauge provider below exports it into metrics.json. *)
let cache_stats () =
  [
    ("compiled", Store.stats compiled_cache, Store.length compiled_cache);
    ("trace", Store.stats trace_cache, Store.length trace_cache);
    ("stats", Store.stats stats_cache, Store.length stats_cache);
  ]

let () =
  Cwsp_obs.Obs.register_gauges (fun () ->
      List.concat_map
        (fun (name, (s : Store.stats), entries) ->
          [
            (Printf.sprintf "store.%s.hits" name, float_of_int s.hits);
            (Printf.sprintf "store.%s.misses" name, float_of_int s.misses);
            (Printf.sprintf "store.%s.races" name, float_of_int s.races);
            (Printf.sprintf "store.%s.entries" name, float_of_int entries);
          ])
        (cache_stats ()))

(** Clear all memoized state (used by tests that tweak workload scale). *)
let reset_caches () =
  Store.reset compiled_cache;
  Store.reset trace_cache;
  Store.reset stats_cache

(** End-to-end crash-consistency validation of a workload (compile with
    the full cWSP pipeline, inject a power failure at each point, recover,
    compare NVM states), every point on one tracked run. *)
let validate_recovery ?(scale = 1) ~points (w : Defs.t) =
  let module H = Cwsp_recovery.Harness in
  let compiled = compiled ~scale w Pipeline.cwsp in
  H.sweep ~mode:Implicit ~launch:Main ~golden:(H.golden_of Main compiled) compiled
    (List.map (fun (seed, crash_at) -> H.clean_point ~seed ~crash_at) points)
  |> List.map H.require_clean
