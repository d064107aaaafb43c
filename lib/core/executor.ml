(** The execute layer: deduplicate declared jobs, generate each shared
    trace exactly once, then replay the timing points across an OCaml 5
    domain pool.

    Execution is two phases with a barrier between them:

    1. {b traces} — one task per distinct (workload, scale, compile
       config); each compiles the binary and interprets it into a commit
       trace ([Api.trace], memoized).
    2. {b stats} — one task per replay group ([Job.group_key]): the
       distinct simulation points that replay one (already memoized)
       trace on one cache hierarchy, grouped in first-appearance order.
       Each task replays its points together ([Api.stats_group],
       memoized), so the caches are simulated once per group.

    The barrier guarantees phase 2 never interprets: every trace a stats
    task needs is a cache hit, so no work is duplicated across domains
    regardless of which domain picks which task.

    Domain-safety contract (see DESIGN.md §5): tasks share only
    [Api]'s mutex-protected stores and the immutable values inside them
    (traces are complete before they are published; a [Stats.t] is only
    mutated by the engine run that produces it). Everything else the
    engine and interpreter touch is allocated per run. [jobs = 1] runs
    on the calling domain with no spawns — byte-identical to the
    pre-parallel harness by construction, and the render layer's
    deterministic iteration makes higher [jobs] produce identical output
    too.

    Observability (DESIGN.md §10): when [Obs.on] is set, every task gets
    a span carrying its queue wait, each phase emits a per-domain
    utilization sample, task durations feed the [executor.task_us]
    histogram, and plan sizes feed the dedupe counters. With tracing off
    a task costs one extra branch. *)

module Obs = Cwsp_obs.Obs

let default_jobs = ref 1

(* Domains beyond the hardware count never help and hurt badly: every
   minor collection is a stop-the-world sync across all domains, so an
   oversubscribed pool spends most of its wall time in GC barriers
   (observed 3.5x on a 1-core host). Rendered output is byte-identical
   for any width, so clamping is safe. *)
let clamp_jobs n = max 1 (min n (Domain.recommended_domain_count ()))

(** Set the pool width [run] uses when no explicit [~jobs] is given —
    how [bench/main.exe -- --jobs N] reaches every driver. Clamped to
    the hardware domain count. *)
let set_default_jobs n = default_jobs := clamp_jobs n

let h_task = Obs.Hist.make "executor.task_us"
let c_declared = Obs.Counter.make "executor.jobs.declared"
let c_points = Obs.Counter.make "executor.jobs.unique"
let c_traces = Obs.Counter.make "executor.traces.unique"
let c_groups = Obs.Counter.make "executor.groups.unique"

(* Work-stealing-free pool: an atomic cursor over an immutable task
   array. Tasks are coarse (whole simulation runs), so contention on the
   cursor is negligible. When tracing, [label] names task [i]'s span,
   [cat] categorizes the spans and prefixes the utilization sample. *)
let run_pool ~jobs ?(cat = "executor") ?label (tasks : (unit -> unit) array) =
  let n = Array.length tasks in
  if n > 0 then begin
    let traced = !Obs.on in
    let width = if jobs <= 1 || n <= 1 then 1 else min jobs n in
    let t_phase = if traced then Obs.now_us () else 0.0 in
    let busy = Array.make width 0.0 in
    let run_task w i =
      if not traced then tasks.(i) ()
      else begin
        let t0 = Obs.now_us () in
        let name = match label with Some f -> f i | None -> "task" in
        Obs.span_begin ~cat ~args:[ ("queue_wait_us", t0 -. t_phase) ] name;
        Fun.protect ~finally:Obs.span_end tasks.(i);
        let dur = Obs.now_us () -. t0 in
        busy.(w) <- busy.(w) +. dur;
        Obs.Hist.add h_task dur
      end
    in
    let cursor = Atomic.make 0 in
    let worker w () =
      let rec loop () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          run_task w i;
          loop ()
        end
      in
      loop ()
    in
    let spawned = List.init (width - 1) (fun k -> Domain.spawn (worker (k + 1))) in
    worker 0 ();
    List.iter Domain.join spawned;
    if traced then begin
      let wall = Obs.now_us () -. t_phase in
      Obs.counter_event
        ~name:(cat ^ ".utilization")
        ~ts_us:(Obs.now_us ())
        (List.init width (fun w ->
             ( Printf.sprintf "domain%d" w,
               if wall > 0.0 then busy.(w) /. wall else 0.0 )))
    end
  end

(** Parallel map over the domain pool with deterministic results: each
    task writes its own slot of the result array, so the output order is
    the input order no matter which domain ran what. [f] must obey the
    domain-safety contract above (shared state only through
    mutex-protected stores). [label], when tracing, names input [i]'s
    span. *)
let map_pool ?cat ?label ~jobs (f : 'a -> 'b) (inputs : 'a array) : 'b array =
  let out = Array.make (Array.length inputs) None in
  run_pool ~jobs ?cat ?label
    (Array.mapi (fun i x () -> out.(i) <- Some (f x)) inputs);
  Array.map
    (function Some y -> y | None -> assert false (* every task ran *))
    out

(* Keep the first job per key, preserving declaration order. *)
let dedupe key_of js =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun j ->
      let k = key_of j in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    js

(* Jobs with equal keys gathered into groups: groups in the order of
   their first job, jobs in declaration order within a group. *)
let group key_of js =
  let groups = Hashtbl.create 64 and firsts = ref [] in
  List.iter
    (fun j ->
      let k = key_of j in
      match Hashtbl.find_opt groups k with
      | Some g -> g := j :: !g
      | None ->
        Hashtbl.add groups k (ref [ j ]);
        firsts := k :: !firsts)
    js;
  List.rev_map (fun k -> List.rev !(Hashtbl.find groups k)) !firsts

(** Execute a job plan: dedupe, trace phase, barrier, stats phase.
    [jobs] defaults to the harness-wide setting ([set_default_jobs]). *)
let run ?jobs (plan : Job.t list) =
  let jobs = match jobs with Some n -> clamp_jobs n | None -> !default_jobs in
  let points = dedupe Job.key plan in
  let traces = dedupe Job.trace_key points in
  let groups = group Job.group_key points in
  Obs.Counter.add c_declared (List.length plan);
  Obs.Counter.add c_points (List.length points);
  Obs.Counter.add c_traces (List.length traces);
  Obs.Counter.add c_groups (List.length groups);
  (* span names index into label arrays built only when tracing *)
  let labels js f =
    if !Obs.on then begin
      let a = Array.of_list (List.map f js) in
      Some (fun i -> a.(i))
    end
    else None
  in
  Obs.span_begin ~cat:"executor" "phase:traces";
  run_pool ~jobs
    ?label:(labels traces (fun j -> "trace:" ^ Job.trace_key j))
    (Array.of_list (List.map (fun j () -> Job.execute_trace j) traces));
  Obs.span_end ();
  Obs.span_begin ~cat:"executor" "phase:stats";
  run_pool ~jobs
    ?label:
      (labels groups (fun g ->
           Printf.sprintf "%s (%d)" (Job.key (List.hd g)) (List.length g)))
    (Array.of_list (List.map (fun g () -> Job.execute_group g) groups));
  Obs.span_end ()
