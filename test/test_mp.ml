(* Multi-core tests: deterministic SPMD interpretation, spinlock mutual
   exclusion, per-thread checkpoint isolation and the multi-core timing
   engine. *)

open Cwsp_ir
open Cwsp_interp
open Cwsp_workloads

let compile_parallel (w : W_parallel.t) ~threads ~config =
  (Cwsp_compiler.Pipeline.compile ~config (w.pbuild ~scale:1 ~threads)).prog

let run_parallel prog ~threads ~worker =
  Multi.traces_of_program prog ~threads ~worker

let read_global (t : Multi.t) name off =
  Memory.read t.mem (Hashtbl.find t.linked.global_addr name + off)

(* ---- functional semantics ---- *)

let test_psweep_striped () =
  let w = W_parallel.psweep in
  let prog = compile_parallel w ~threads:4 ~config:Cwsp_compiler.Pipeline.baseline in
  let t, traces = run_parallel prog ~threads:4 ~worker:w.worker in
  (* every thread wrote its per-thread checksum slot *)
  for tid = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "thread %d produced a checksum" tid)
      true
      (read_global t "checksum" (8 * tid) <> 0)
  done;
  Array.iter
    (fun tr ->
      Alcotest.(check bool) "per-thread trace non-trivial" true
        (Trace.length tr > 1000))
    traces

let test_deterministic_interleaving () =
  let w = W_parallel.ptransactions in
  let prog = compile_parallel w ~threads:3 ~config:Cwsp_compiler.Pipeline.baseline in
  let t1, _ = run_parallel prog ~threads:3 ~worker:w.worker in
  let t2, _ = run_parallel prog ~threads:3 ~worker:w.worker in
  Alcotest.(check bool) "same final memory" true (Memory.equal t1.mem t2.mem)

let test_spinlock_mutual_exclusion () =
  let w = W_parallel.pcounter in
  let threads = 4 in
  let prog = compile_parallel w ~threads ~config:Cwsp_compiler.Pipeline.baseline in
  let t, _ = run_parallel prog ~threads ~worker:w.worker in
  Alcotest.(check int) "no lost updates under the lock" (threads * 400)
    (read_global t "pcnt" 0)

let test_racy_counter_loses_updates () =
  (* the unlocked variant must lose updates, proving the interleaving is
     real and the previous test is meaningful *)
  let w = W_parallel.pcounter_racy in
  let threads = 4 in
  let prog = compile_parallel w ~threads ~config:Cwsp_compiler.Pipeline.baseline in
  let t, _ = run_parallel prog ~threads ~worker:w.worker in
  let v = read_global t "rcnt" 0 in
  Alcotest.(check bool)
    (Printf.sprintf "updates lost (%d < %d)" v (threads * 400))
    true
    (v < threads * 400)

let test_instrumented_parallel_semantics () =
  (* cWSP instrumentation must not change multi-threaded results either *)
  let w = W_parallel.pcounter in
  let threads = 3 in
  let base = compile_parallel w ~threads ~config:Cwsp_compiler.Pipeline.baseline in
  let cwsp = compile_parallel w ~threads ~config:Cwsp_compiler.Pipeline.cwsp in
  let tb, _ = run_parallel base ~threads ~worker:w.worker in
  let tc, _ = run_parallel cwsp ~threads ~worker:w.worker in
  Alcotest.(check int) "same counter value"
    (read_global tb "pcnt" 0)
    (read_global tc "pcnt" 0)

let test_per_thread_ckpt_slots_disjoint () =
  let a = Layout.ckpt_slot ~tid:0 ~depth:0 5 in
  let b = Layout.ckpt_slot ~tid:1 ~depth:0 5 in
  let c = Layout.ckpt_slot ~tid:0 ~depth:1 5 in
  Alcotest.(check bool) "threads disjoint" true (a <> b);
  Alcotest.(check bool) "depths disjoint" true (a <> c);
  Alcotest.(check bool) "all in ckpt area" true
    (Layout.is_ckpt_addr a && Layout.is_ckpt_addr b && Layout.is_ckpt_addr c)

let test_worker_arity_checked () =
  let w = W_parallel.psweep in
  let prog = compile_parallel w ~threads:2 ~config:Cwsp_compiler.Pipeline.baseline in
  let linked = Machine.link prog in
  Alcotest.check_raises "bad worker rejected"
    (Invalid_argument "Multi.create: no worker function nope") (fun () ->
      ignore (Multi.create linked ~threads:2 ~worker:"nope"))

(* ---- multi-core recovery (Section VIII) ---- *)

(* The three SPMD workloads below are schedule-deterministic in their
   final program-visible state (striped/disjoint, or commutative updates
   under a lock), so a failure-free run is a valid oracle even though
   recovery changes the interleaving. [mp_outcomes] crashes the run of
   [name]'s cWSP binary, after [patch], at [points] crash points spread
   over it, all on one [threads]-lane sweep: each point's crash step and
   result. *)
let mp_outcomes ?(patch = Fun.id) name ~threads ~points =
  let module H = Cwsp_recovery.Harness in
  let w = W_parallel.find_exn name in
  let compiled =
    patch
      (Cwsp_compiler.Pipeline.compile ~config:Cwsp_compiler.Pipeline.cwsp
         (w.pbuild ~scale:1 ~threads))
  in
  let launch = H.Worker { worker = w.worker; threads } in
  let golden = H.golden_of launch compiled in
  let crash_ats =
    List.init points (fun i -> 1 + (i * (golden.g_steps * 9 / 10) / points))
  in
  H.sweep ~mode:Implicit ~launch ~golden compiled
    (List.mapi (fun i crash_at -> H.clean_point ~seed:(500 + i) ~crash_at) crash_ats)
  |> List.map H.require_clean
  |> List.combine crash_ats

let mp_validate name ~threads ~points =
  List.filter_map
    (function
      | _, Ok _ -> None
      | crash_at, Error e -> Some (Printf.sprintf "@%d: %s" crash_at e))
    (mp_outcomes name ~threads ~points)

let test_mp_recovery_psweep () =
  Alcotest.(check (list string)) "psweep x4 threads" []
    (mp_validate "psweep" ~threads:4 ~points:10)

let test_mp_recovery_pcounter () =
  Alcotest.(check (list string)) "pcounter x4 threads (locked)" []
    (mp_validate "pcounter" ~threads:4 ~points:10)

let test_mp_recovery_ptx () =
  Alcotest.(check (list string)) "ptx x3 threads (locked transfers)" []
    (mp_validate "ptx" ~threads:3 ~points:10)

(* A recovery slice that restores garbage sends the resumed threads
   through wild pointers: every point must come back as a result — a
   fault, trap, hang or deadlock of the resumed run is an [Error], never
   an escaping exception — and the garbage must be caught somewhere. *)
let test_mp_wild_resume_is_error () =
  let wild (c : Cwsp_compiler.Pipeline.compiled) =
    {
      c with
      slices =
        Array.map
          (List.map (fun (r, _) -> (r, Cwsp_ckpt.Slice.EImm 0xBAD)))
          c.slices;
    }
  in
  List.iter
    (fun (name, threads) ->
      match mp_outcomes ~patch:wild name ~threads ~points:10 with
      | exception e ->
        Alcotest.failf "%s x%d: the sweep raised %s" name threads
          (Printexc.to_string e)
      | outcomes ->
        Alcotest.(check bool)
          (Printf.sprintf "%s x%d: a wild resume is an Error" name threads)
          true
          (List.exists (fun (_, r) -> Result.is_error r) outcomes))
    [ ("psweep", 4); ("pcounter", 4); ("ptx", 3) ]

(* ---- timing ---- *)

let mp_elapsed w ~threads ~scheme ~config =
  let prog = compile_parallel w ~threads ~config in
  let _, traces = run_parallel prog ~threads ~worker:w.W_parallel.worker in
  (Cwsp_sim.Engine.run_traces Cwsp_sim.Config.default scheme traces).elapsed_ns

let test_mp_cwsp_slower_than_baseline () =
  let w = W_parallel.psweep in
  let b =
    mp_elapsed w ~threads:4 ~scheme:Cwsp_sim.Engine.Baseline ~config:Cwsp_compiler.Pipeline.baseline
  in
  let c = mp_elapsed w ~threads:4 ~scheme:Cwsp_experiments.Exp_mp.cwsp ~config:Cwsp_compiler.Pipeline.cwsp in
  Alcotest.(check bool) "cwsp >= baseline" true (c >= b)

let test_mp_contention_grows () =
  let w = W_parallel.psweep in
  let ratio threads =
    mp_elapsed w ~threads ~scheme:Cwsp_experiments.Exp_mp.cwsp ~config:Cwsp_compiler.Pipeline.cwsp
    /. mp_elapsed w ~threads ~scheme:Cwsp_sim.Engine.Baseline ~config:Cwsp_compiler.Pipeline.baseline
  in
  Alcotest.(check bool) "8 cores contend more than 1" true (ratio 8 > ratio 1)

let test_mp_per_core_stats () =
  let w = W_parallel.psweep in
  let threads = 2 in
  let prog = compile_parallel w ~threads ~config:Cwsp_compiler.Pipeline.cwsp in
  let _, traces = run_parallel prog ~threads ~worker:w.worker in
  let r =
    Cwsp_sim.Engine.run_traces Cwsp_sim.Config.default Cwsp_experiments.Exp_mp.cwsp
      traces
  in
  Alcotest.(check int) "one stats record per core" threads (Array.length r.per_core);
  Array.iter
    (fun (s : Cwsp_sim.Stats.t) ->
      Alcotest.(check bool) "each core persisted stores" true (s.nvm_writes > 0))
    r.per_core

let () =
  Alcotest.run "mp"
    [
      ( "functional",
        [
          Alcotest.test_case "striped sweep" `Quick test_psweep_striped;
          Alcotest.test_case "deterministic" `Quick test_deterministic_interleaving;
          Alcotest.test_case "spinlock excludes" `Quick test_spinlock_mutual_exclusion;
          Alcotest.test_case "races lose updates" `Quick test_racy_counter_loses_updates;
          Alcotest.test_case "instrumentation neutral" `Quick test_instrumented_parallel_semantics;
          Alcotest.test_case "ckpt slots disjoint" `Quick test_per_thread_ckpt_slots_disjoint;
          Alcotest.test_case "worker checked" `Quick test_worker_arity_checked;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "psweep" `Slow test_mp_recovery_psweep;
          Alcotest.test_case "pcounter" `Slow test_mp_recovery_pcounter;
          Alcotest.test_case "ptx" `Slow test_mp_recovery_ptx;
          Alcotest.test_case "wild resume is an error" `Slow
            test_mp_wild_resume_is_error;
        ] );
      ( "timing",
        [
          Alcotest.test_case "cwsp slower" `Slow test_mp_cwsp_slower_than_baseline;
          Alcotest.test_case "contention grows" `Slow test_mp_contention_grows;
          Alcotest.test_case "per-core stats" `Slow test_mp_per_core_stats;
        ] );
    ]
