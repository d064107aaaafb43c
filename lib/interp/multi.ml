(** Deterministic SPMD multi-threaded execution.

    [threads] machines share one NVM memory image; thread [t] starts in
    [worker](t). Scheduling is round-robin with a fixed instruction
    quantum, so multi-threaded runs are bit-reproducible — the property
    every test in this repository leans on. There is no cache-coherence
    modeling at this (functional) level: memory is sequentially
    consistent under the interleaving, which is the contract the paper
    assumes for data-race-free programs (Section VIII).

    Checkpoint slots are per-thread ([Layout.ckpt_slot ~tid]), matching
    the paper's per-core checkpoint storage. *)

open Cwsp_ir

type t = {
  linked : Machine.linked;
  mem : Memory.t;
  machines : Machine.t array;
  quantum : int;
}

let default_quantum = Decode.default_quantum

(** [create linked ~threads ~worker] initializes globals once and spawns
    [threads] machines, each entering [worker](tid). [quantum] is the
    round-robin instruction quantum (default 32); different quanta give
    different — but each individually reproducible — interleavings. *)
let create ?(quantum = default_quantum) (linked : Machine.linked) ~threads ~worker : t =
  if threads <= 0 then invalid_arg "Multi.create: threads must be positive";
  if quantum <= 0 then invalid_arg "Multi.create: quantum must be positive";
  let wf =
    match Hashtbl.find_opt linked.fidx worker with
    | Some i -> linked.lfuncs.(i)
    | None -> invalid_arg ("Multi.create: no worker function " ^ worker)
  in
  if wf.nparams <> 1 then
    invalid_arg "Multi.create: worker must take exactly the thread id";
  let mem = Memory.create () in
  List.iter
    (fun (g : Prog.global) ->
      let base = Hashtbl.find linked.global_addr g.gname in
      List.iter (fun (w, v) -> Memory.write mem (base + (w * 8)) v) g.init)
    linked.source.globals;
  let machines =
    Array.init threads (fun tid ->
        let regs = Array.make (max 1 wf.nregs) 0 in
        regs.(0) <- tid;
        Machine.resume linked ~mem
          ~frames:[ { Machine.lf = wf; regs; blk = 0; idx = 0; ret_to = None } ]
          ~depth:0
        |> fun m -> { m with Machine.tid })
  in
  { linked; mem; machines; quantum }

(** Run all threads to completion. [hooks t] supplies the per-thread
    hooks (e.g. one trace per thread). Raises [Machine.Fuel_exhausted]
    if the combined budget runs out; every pass steps some running
    thread, so a thread left spinning uses it up. *)
let run ?(fuel = 200_000_000) ?quantum (t : t) (hooks : int -> Machine.hooks) =
  let quantum = Option.value ~default:t.quantum quantum in
  let hs = Array.init (Array.length t.machines) hooks in
  let budget = ref fuel in
  let live () =
    Array.exists (fun m -> m.Machine.status = Machine.Running) t.machines
  in
  while live () do
    Array.iteri
      (fun i m ->
        if m.Machine.status = Machine.Running then begin
          for _ = 1 to quantum do
            if m.Machine.status = Machine.Running then begin
              if !budget <= 0 then raise Machine.Fuel_exhausted;
              decr budget;
              Machine.step m hs.(i)
            end
          done
        end)
      t.machines
  done

(** Convenience: SPMD trace generation — one commit trace per thread. *)
let traces_of_program ?fuel ?quantum (p : Prog.t) ~threads ~worker :
    t * Trace.t array =
  let linked = Machine.link p in
  let t = create ?quantum linked ~threads ~worker in
  let traces = Array.init threads (fun _ -> Trace.create ()) in
  run ?fuel ?quantum t (fun tid ->
      { Machine.no_hooks with on_event = Trace.push traces.(tid) });
  (t, traces)
