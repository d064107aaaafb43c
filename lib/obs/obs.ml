(** Whole-stack observability: structured spans, counters, histograms
    and gauge providers, exported as Chrome-trace-event JSON (opens
    directly in Perfetto / chrome://tracing) and a flat metrics.json.

    Determinism contract: telemetry is a {e side artifact}. Nothing in
    this module feeds back into compiled programs, traces, simulation
    statistics or rendered experiment output; enabling tracing changes
    what lands in [--trace]/[--metrics] files (and stderr notices) and
    nothing else, so golden outputs stay byte-identical with tracing on
    or off and at any pool width.

    Cost contract: the disabled path is a single branch on the static
    [on] flag — no allocation and no closure capture. Instrumentation
    sites on hot paths call [span_begin]/[span_end] (or test [!on]
    themselves before building dynamic names); only coarse per-run sites
    use the closure-passing [time] helper.

    Domain-safety: spans land in per-domain ring buffers reached through
    [Domain.DLS] (no locks on the record path) and are merged at export;
    each buffer registers itself once, under a mutex, in a global list —
    the same first-writer-wins discipline as [Store]. Counters are
    atomics; histograms take a per-histogram mutex (coarse call sites
    only). Rings are bounded: when a domain overflows its ring the
    oldest events are overwritten and the drop is counted, never
    blocking the instrumented code. *)

(* ---- enablement ---- *)

(** The static fast-path flag. Read it directly ([if !Obs.on then ...])
    before building dynamic span names or argument lists; mutate it only
    through [enable]/[configure]/[reset] (and before spawning domains —
    the flag is a plain ref published by the spawn). *)
let on = ref false

let enable () = on := true

(* ---- clock ---- *)

(* Trace timestamps are microseconds since process start (Chrome's
   native unit), from the wall clock: they never touch simulated time
   or any rendered result. *)
let t_epoch = Unix.gettimeofday ()
let now_us () = (Unix.gettimeofday () -. t_epoch) *. 1e6

(* ---- events and per-domain rings ---- *)

type ev =
  | Span of {
      name : string;
      cat : string;
      ts : float; (* µs since process start *)
      dur : float; (* µs *)
      tid : int;
      args : (string * float) list;
    }
  | Count of {
      name : string;
      ts : float; (* µs; sim tracks use simulated µs *)
      pid : int; (* 0 = the real-time process; >0 = [alloc_track] tracks *)
      args : (string * float) list;
    }

type dstate = {
  tid : int;
  mutable stack : (string * string * float * (string * float) list) list;
  mutable ring : ev option array; (* sized on first event *)
  mutable widx : int; (* total events ever pushed *)
}

let mu = Mutex.create ()
let dstates : dstate list ref = ref []
(* Per-domain ring capacity, allocated on a domain's first event (so
   only when tracing). A traced [bench -- fig13 fig14 --jobs 2] puts
   about 11k events on its busiest domain; 64k slots (512 KiB) keep a
   run of that size whole with room to spare. *)
let ring_cap = ref 65_536
let unbalanced = Atomic.make 0

let dls : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let d =
        { tid = (Domain.self () :> int); stack = []; ring = [||]; widx = 0 }
      in
      Mutex.protect mu (fun () -> dstates := d :: !dstates);
      d)

let push d ev =
  if Array.length d.ring = 0 then d.ring <- Array.make (max 16 !ring_cap) None;
  d.ring.(d.widx mod Array.length d.ring) <- Some ev;
  d.widx <- d.widx + 1

(* ---- spans ---- *)

let span_begin ?(cat = "") ?(args = []) name =
  if !on then begin
    let d = Domain.DLS.get dls in
    d.stack <- (name, cat, now_us (), args) :: d.stack
  end

let span_end ?(args = []) () =
  if !on then begin
    let d = Domain.DLS.get dls in
    match d.stack with
    | [] -> Atomic.incr unbalanced
    | (name, cat, ts, opened) :: rest ->
      d.stack <- rest;
      push d
        (Span
           { name; cat; ts; dur = now_us () -. ts; tid = d.tid; args = opened @ args })
  end

(** Open spans on the calling domain (0 when balanced or disabled). *)
let open_depth () =
  if !on then List.length (Domain.DLS.get dls).stack else 0

(** Unmatched [span_end] calls seen so far. *)
let unbalanced_ends () = Atomic.get unbalanced

(** Time [f] under a span. Allocates the closure even when disabled —
    fine for coarse per-run sites, not for per-event hot paths. *)
let time ?cat ?args name f =
  if not !on then f ()
  else begin
    span_begin ?cat ?args name;
    Fun.protect ~finally:span_end f
  end

(* ---- counter events and tracks ---- *)

(** Emit a Chrome "C" (counter) sample. [pid] 0 is the real-time
    process; tracks from [alloc_track] carry their own timeline (the sim
    engine records epochs in simulated µs there). *)
let counter_event ?(pid = 0) ~name ~ts_us args =
  if !on then push (Domain.DLS.get dls) (Count { name; ts = ts_us; pid; args })

let next_track = Atomic.make 1
let tracks : (int * string) list ref = ref []

(** Allocate a fresh Perfetto process track (returns its pid) named in
    the trace via process_name metadata. *)
let alloc_track name =
  let pid = Atomic.fetch_and_add next_track 1 in
  Mutex.protect mu (fun () -> tracks := (pid, name) :: !tracks);
  pid

(* ---- counters ---- *)

module Counter = struct
  type t = { cname : string; v : int Atomic.t }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 64

  (** Find-or-create by name (first writer wins, like [Store]). *)
  let make name =
    Mutex.protect mu (fun () ->
        match Hashtbl.find_opt registry name with
        | Some c -> c
        | None ->
          let c = { cname = name; v = Atomic.make 0 } in
          Hashtbl.add registry name c;
          c)

  let add c n = if !on then ignore (Atomic.fetch_and_add c.v n)
  let incr c = add c 1
  let value c = Atomic.get c.v
  let name c = c.cname
end

(* ---- histograms ---- *)

(* Duration-oriented default bounds, in µs: 1µs .. 10s on a 1-2-5 grid. *)
let default_bounds =
  [|
    1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1e3; 2e3; 5e3; 1e4; 2e4; 5e4;
    1e5; 2e5; 5e5; 1e6; 2e6; 5e6; 1e7;
  |]

module Hist = struct
  type t = { hname : string; hmu : Mutex.t; h : Cwsp_util.Stats.Histogram.t }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 32

  (** Find-or-create by name; [bounds] only applies on creation. *)
  let make ?(bounds = default_bounds) name =
    Mutex.protect mu (fun () ->
        match Hashtbl.find_opt registry name with
        | Some h -> h
        | None ->
          let h =
            {
              hname = name;
              hmu = Mutex.create ();
              h = Cwsp_util.Stats.Histogram.create bounds;
            }
          in
          Hashtbl.add registry name h;
          h)

  let add t v =
    if !on then
      Mutex.protect t.hmu (fun () -> Cwsp_util.Stats.Histogram.add t.h v)

  let count t = Mutex.protect t.hmu (fun () -> Cwsp_util.Stats.Histogram.count t.h)
end

(* ---- gauge providers ---- *)

(* Pull-style metrics sampled once at export (e.g. [Store] cache
   hit/miss totals registered by [Api]). *)
let gauge_providers : (unit -> (string * float) list) list ref = ref []

let register_gauges f =
  Mutex.protect mu (fun () -> gauge_providers := f :: !gauge_providers)

(* ---- snapshots ---- *)

type span_view = {
  sp_name : string;
  sp_cat : string;
  sp_ts_us : float;
  sp_dur_us : float;
  sp_tid : int;
  sp_args : (string * float) list;
}

let snapshot_events () =
  let ds = Mutex.protect mu (fun () -> !dstates) in
  List.concat_map
    (fun d ->
      let cap = Array.length d.ring in
      let n = min d.widx cap in
      List.filter_map Fun.id
        (List.init n (fun i -> d.ring.((d.widx - n + i) mod cap))))
    ds

(** Events overwritten in full rings, per domain: (tid, dropped) sorted
    by tid. Domains that dropped nothing still appear — the export
    asserting "no domain overflowed" needs the zeros. *)
let dropped_per_domain () =
  let ds = Mutex.protect mu (fun () -> !dstates) in
  List.map (fun d -> (d.tid, max 0 (d.widx - Array.length d.ring))) ds
  |> List.sort compare

(** Events overwritten in full rings, program-wide. *)
let dropped_events () =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (dropped_per_domain ())

(** All completed spans, merged across domains, timestamp-sorted. *)
let snapshot_spans () =
  snapshot_events ()
  |> List.filter_map (function
       | Span { name; cat; ts; dur; tid; args } ->
         Some
           {
             sp_name = name;
             sp_cat = cat;
             sp_ts_us = ts;
             sp_dur_us = dur;
             sp_tid = tid;
             sp_args = args;
           }
       | Count _ -> None)
  |> List.sort (fun a b ->
         compare
           (a.sp_ts_us, a.sp_tid, a.sp_name)
           (b.sp_ts_us, b.sp_tid, b.sp_name))

(* ---- JSON emission ---- *)

module Json = Cwsp_util.Json

let event ph ~pid ~tid rest =
  Json.(Obj ([ ("ph", Str ph); ("pid", int pid); ("tid", int tid) ] @ rest))

(* trace timestamps and durations, µs *)
let us t = Json.Num (Printf.sprintf "%.3f" t)

let args_json args = Json.Obj (List.map (fun (k, v) -> (k, Json.float v)) args)

let process_name pid name =
  event "M" ~pid ~tid:0
    Json.[ ("name", Str "process_name"); ("args", Obj [ ("name", Str name) ]) ]

(** Write the Chrome trace-event file ([{"traceEvents":[...]}]): "M"
    process-name metadata for the root process and every [alloc_track],
    "X" complete events for spans, "C" counter samples. Streamed one
    event per line. *)
let write_trace path =
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  let first = ref true in
  let emit v =
    if !first then first := false else output_string oc ",\n";
    output_string oc (Json.to_string v)
  in
  emit (process_name 0 "cwsp");
  let tks = Mutex.protect mu (fun () -> List.rev !tracks) in
  List.iter (fun (pid, name) -> emit (process_name pid name)) tks;
  List.iter
    (fun ev ->
      match ev with
      | Span { name; cat; ts; dur; tid; args } ->
        emit
          (event "X" ~pid:0 ~tid
             ([
                ("ts", us ts); ("dur", us (Float.max 0.0 dur));
                ("name", Json.Str name); ("cat", Json.Str cat);
              ]
             @ if args = [] then [] else [ ("args", args_json args) ]))
      | Count { name; ts; pid; args } ->
        emit
          (event "C" ~pid ~tid:0
             [
               ("ts", us ts); ("name", Json.Str name); ("args", args_json args);
             ]))
    (snapshot_events ());
  output_string oc "\n]}\n";
  close_out oc

(** Write the flat metrics file: counters, histogram summaries
    (count/sum/mean/p50/p90/p99/buckets), sampled gauges, and span
    accounting. Keys are sorted for deterministic layout; one key per
    line inside each section. *)
let write_metrics path =
  let oc = open_out path in
  let counters =
    Mutex.protect mu (fun () ->
        Hashtbl.fold (fun k c acc -> (k, Atomic.get c.Counter.v) :: acc)
          Counter.registry [])
    |> List.sort compare
  in
  let hists =
    Mutex.protect mu (fun () ->
        Hashtbl.fold (fun k h acc -> (k, h) :: acc) Hist.registry [])
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let gauges =
    List.concat_map (fun f -> f ()) (List.rev !gauge_providers)
    |> List.sort compare
  in
  let section name kvs =
    output_string oc (Json.quote name ^ ":{");
    List.iteri
      (fun i (k, v) ->
        Printf.fprintf oc "%s\n  %s" (if i > 0 then "," else "") (Json.kv k v))
      kvs;
    output_string oc "\n},\n"
  in
  let bucket (ub, n) =
    let le = if Float.is_finite ub then Json.float ub else Json.Str "inf" in
    Json.(Obj [ ("le", le); ("n", int n) ])
  in
  let hist_json (h : Hist.t) =
    let module H = Cwsp_util.Stats.Histogram in
    Mutex.protect h.Hist.hmu (fun () ->
        let q p = Json.float (H.quantile h.Hist.h p) in
        Json.(
          Obj
            [
              ("count", int (H.count h.Hist.h));
              ("sum", float (H.sum h.Hist.h));
              ("mean", float (H.mean h.Hist.h)); ("p50", q 0.5); ("p90", q 0.9);
              ("p99", q 0.99); ("p999", q 0.999);
              ("buckets", List (List.map bucket (H.buckets h.Hist.h)));
            ]))
  in
  output_string oc "{\n";
  section "counters" (List.map (fun (k, v) -> (k, Json.int v)) counters);
  section "histograms" (List.map (fun (k, h) -> (k, hist_json h)) hists);
  section "gauges" (List.map (fun (k, v) -> (k, Json.float v)) gauges);
  let per_domain =
    List.map (fun (tid, n) -> (Printf.sprintf "d%d" tid, Json.int n))
      (dropped_per_domain ())
  in
  let spans =
    Json.(
      Obj
        [
          ("recorded", int (List.length (snapshot_spans ())));
          ("dropped", int (dropped_events ()));
          ("unbalanced", int (Atomic.get unbalanced));
          ("dropped_per_domain", Obj per_domain);
        ])
  in
  output_string oc (Json.kv "spans" spans ^ "\n}\n");
  close_out oc

(* ---- CLI wiring ---- *)

let trace_path = ref None
let metrics_path = ref None

(** Wire the process's telemetry targets: explicit [?trace]/[?metrics]
    paths win, otherwise the [CWSP_TRACE]/[CWSP_METRICS] environment
    variables; setting either enables instrumentation.
    [CWSP_TRACE_BUF] overrides the per-domain ring capacity. Call once
    at startup, before spawning domains. *)
let configure ?trace ?metrics () =
  let or_env v k = match v with Some _ -> v | None -> Sys.getenv_opt k in
  (match Sys.getenv_opt "CWSP_TRACE_BUF" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > 0 -> ring_cap := n
    | Some _ | None -> ())
  | None -> ());
  trace_path := or_env trace "CWSP_TRACE";
  metrics_path := or_env metrics "CWSP_METRICS";
  if !trace_path <> None || !metrics_path <> None then on := true

(** Write the configured artifacts (no-op when none were configured).
    Notices go to stderr: stdout belongs to golden outputs. *)
let finalize () =
  (match !trace_path with
  | Some p ->
    write_trace p;
    Printf.eprintf "obs: trace written to %s (%d spans, %d dropped)\n%!" p
      (List.length (snapshot_spans ()))
      (dropped_events ())
  | None -> ());
  match !metrics_path with
  | Some p ->
    write_metrics p;
    Printf.eprintf "obs: metrics written to %s\n%!" p
  | None -> ()

(** Test-only: disable, clear every ring/stack/counter/histogram/track
    and the configured paths. Counter/histogram handles stay valid. *)
let reset () =
  on := false;
  trace_path := None;
  metrics_path := None;
  Atomic.set unbalanced 0;
  Mutex.protect mu (fun () ->
      List.iter
        (fun d ->
          d.stack <- [];
          d.widx <- 0;
          if Array.length d.ring > 0 then
            Array.fill d.ring 0 (Array.length d.ring) None)
        !dstates;
      tracks := [];
      Hashtbl.iter (fun _ c -> Atomic.set c.Counter.v 0) Counter.registry;
      Hashtbl.iter
        (fun _ (h : Hist.t) ->
          Mutex.protect h.Hist.hmu (fun () ->
              Cwsp_util.Stats.Histogram.clear h.Hist.h))
        Hist.registry)
