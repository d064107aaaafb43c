(* Differential validation of the decoded execution core (DESIGN.md
   §12): [Cwsp_ir.Decode] must be observationally identical to the
   reference interpreter ([Machine]/[Multi]) — same commit trace, same
   outputs, same step count, same final memory, same trap behaviour.

   Three oracles:
   1. registry-wide identity: every workload in the registry under
      every compile configuration a scheme uses;
   2. SPMD identity: every parallel workload at the MP experiment's
      thread counts, against [Multi]'s round-robin schedule;
   3. fuzz differential: randomized programs from the shared
      [Cwsp_fuzz.Gen] generator (nested control flow, opaque pointers,
      allocator calls, atomics) through both compile configurations.

   And one for the instrumented core the crash harness and the race
   monitor run: a hooked decode makes, step for step, the calls the
   reference's store/event hooks imply — every access, write, boundary
   (with its call stack), atomic (with whether it wrote), flush and
   fence. *)

open Cwsp_interp
module Fuzz_gen = Cwsp_fuzz.Gen

let ok label = function
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: decoded/reference divergence: %s" label e

let test_registry_identity () =
  List.iter
    (fun (w : Cwsp_workloads.Defs.t) ->
      List.iter
        (fun config ->
          let compiled = Cwsp_compiler.Pipeline.compile ~config (w.build ~scale:1) in
          let label =
            Printf.sprintf "%s/%s" w.name
              (Cwsp_compiler.Pipeline.config_name config)
          in
          ok label (Oracle.check ~label compiled.prog))
        Cwsp_compiler.Pipeline.
          [ baseline; regions_only; cwsp_no_prune; cwsp; cwsp_explicit ])
    Cwsp_workloads.Registry.all

let test_spmd_identity () =
  List.iter
    (fun (w : Cwsp_workloads.W_parallel.t) ->
      List.iter
        (fun threads ->
          List.iter
            (fun config ->
              let compiled =
                Cwsp_compiler.Pipeline.compile ~config
                  (w.pbuild ~scale:1 ~threads)
              in
              let label = Printf.sprintf "%s@%d" w.pname threads in
              ok label
                (Oracle.check_spmd ~label compiled.prog ~threads
                   ~worker:w.worker))
            Cwsp_compiler.Pipeline.[ baseline; cwsp ])
        [ 1; 2; 4; 8 ])
    Cwsp_workloads.W_parallel.all

(* SPMD fuzz differential: racy seeds included deliberately — whatever
   the interleaving does, both engines must do it identically. *)
let test_spmd_fuzz_differential () =
  for seed = 1 to 30 do
    let prog, kind = Fuzz_gen.gen_spmd_program seed in
    List.iter
      (fun threads ->
        let label =
          Printf.sprintf "spmd seed %d@%d (%s)" seed threads
            (match kind with `Drf -> "drf" | `Racy -> "racy")
        in
        ok label
          (Oracle.check_spmd ~fuel:2_000_000 ~label prog ~threads
             ~worker:"worker"))
      [ 2; 3 ]
  done

let test_fuzz_differential () =
  for seed = 1 to 80 do
    let prog = Fuzz_gen.gen_program seed in
    List.iter
      (fun config ->
        let compiled = Cwsp_compiler.Pipeline.compile ~config prog in
        let label =
          Printf.sprintf "seed %d/%s" seed
            (Cwsp_compiler.Pipeline.config_name config)
        in
        ok label (Oracle.check ~fuel:2_000_000 ~label compiled.prog))
      Cwsp_compiler.Pipeline.[ baseline; cwsp ]
  done

(* the trace the engines replay ([Api.trace], decoded and memoized) is
   the reference interpreter's *)
let test_oracle_trace_roundtrip () =
  let w = Cwsp_workloads.Registry.find_exn "sjeng" in
  let compiled =
    Cwsp_compiler.Pipeline.compile ~config:Cwsp_compiler.Pipeline.cwsp
      (w.build ~scale:1)
  in
  let tr = Cwsp_core.Api.trace w Cwsp_compiler.Pipeline.cwsp in
  let _, ref_tr = Machine.trace_of_program compiled.prog in
  match Trace.first_diff tr ref_tr with
  | None -> ()
  | Some i -> Alcotest.failf "trace differs from reference at event %d" i

(* An untraced state runs the same closures into a 64-slot ring that
   wraps: every workload (one core, and SPMD at 4 threads) must end with
   the traced run's outputs, steps and image, and asking an untraced
   state for its trace is an error, not a silently wrapped trace. *)
let test_untraced_matches_traced () =
  let open Cwsp_ir in
  let same label (a : Decode.st) (b : Decode.st) =
    if Decode.outputs a <> Decode.outputs b then Alcotest.failf "%s: outputs" label;
    if Decode.steps a <> Decode.steps b then Alcotest.failf "%s: steps" label;
    if not (Memory.equal (Decode.memory a) (Decode.memory b)) then
      Alcotest.failf "%s: final image" label
  in
  List.iter
    (fun (w : Cwsp_workloads.Defs.t) ->
      let d = Decode.decode (Cwsp_core.Api.compiled w Cwsp_compiler.Pipeline.cwsp).prog in
      let traced = Decode.create d and untraced = Decode.create ~traced:false d in
      Decode.run traced;
      Decode.run untraced;
      same w.name traced untraced;
      Alcotest.(check bool) (w.name ^ ": traced run kept its trace") true
        (Trace.length (Decode.trace traced) > 64);
      Alcotest.check_raises (w.name ^ ": no trace untraced")
        (Invalid_argument "Decode.trace: an untraced state keeps no trace")
        (fun () -> ignore (Decode.trace untraced)))
    Cwsp_workloads.Registry.all;
  List.iter
    (fun (w : Cwsp_workloads.W_parallel.t) ->
      let d = Decode.decode (w.pbuild ~scale:1 ~threads:4) in
      let spmd traced = Decode.create_spmd ~traced d ~threads:4 ~worker:w.worker in
      let traced = spmd true and untraced = spmd false in
      Decode.run_spmd traced;
      Decode.run_spmd untraced;
      Array.iteri
        (fun tid st -> same (Printf.sprintf "%s@4 thread %d" w.pname tid) st untraced.sts.(tid))
        traced.sts)
    Cwsp_workloads.W_parallel.all

(* ---- hooked decode against the reference ---- *)

(* Every hook call of one step, flattened to ints: a tag, the thread,
   the step count, then the call's arguments. A boundary's arguments end
   with its frames, each as function, block, index, return register and
   registers. *)
module Calls = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 256 0; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let call t tag ~tid ~step args = List.iter (push t) (tag :: tid :: step :: args)

  let frames t fs =
    push t (List.length fs);
    List.iter
      (fun (fn, blk, idx, ret, regs) ->
        List.iter (push t) [ fn; blk; idx; ret; Array.length regs ];
        Array.iter (push t) regs)
      fs

  let contents t = Array.sub t.a 0 t.n
  let show t = String.concat " " (Array.to_list (Array.map string_of_int (contents t)))
end

let tag_access = 1
and tag_store = 2
and tag_boundary = 3
and tag_atomic = 4
and tag_flush = 5
and tag_fence = 6

(* A hooked decode of [prog] that records every call into [calls] and
   counts the atomics that wrote nothing in [failed]. *)
let recording_decode calls failed prog =
  let open Cwsp_ir in
  let call tag st args =
    Calls.call calls tag ~tid:(Decode.tid st) ~step:(Decode.steps st) args
  in
  let hooks =
    {
      Decode.access = Some (fun st k a -> call tag_access st [ Event.tag_of_kind k; a ]);
      store =
        Some
          (fun st k ~addr ~old ~value ->
            call tag_store st [ Event.tag_of_kind k; addr; old; value ]);
      boundary =
        Some
          (fun st id ->
            call tag_boundary st [ id ];
            Calls.frames calls
              (List.map
                 (fun (f : Decode.frame) -> (f.fn, f.blk, f.idx, f.ret, Array.copy f.regs))
                 (Decode.frames st)));
      atomic =
        Some
          (fun st ~addr ~value ~wrote ->
            if not wrote then incr failed;
            call tag_atomic st [ addr; value; Bool.to_int wrote ]);
      flush = Some (fun st a -> call tag_flush st [ a ]);
      fence = Some (fun st -> call tag_fence st []);
    }
  in
  Decode.decode ~hooks prog

(* One reference step of [m], recording the calls the hooked decode
   makes for it: the access the instruction about to run makes, then
   its write, then its boundary, atomic, flush or fence. *)
let reference_step calls (m : Machine.t) =
  let open Cwsp_ir in
  let call tag args = Calls.call calls tag ~tid:m.tid ~step:m.steps args in
  let ins =
    match m.frames with
    | fr :: _ when fr.idx < Array.length fr.lf.code.(fr.blk) ->
      Some (fr.regs, fr.lf.code.(fr.blk).(fr.idx))
    | _ -> None
  in
  let writer, accessed =
    match ins with
    | Some (r, Types.Load (_, b, o)) -> (Event.Load, Some (Event.Load, r.(b) + o))
    | Some (r, Types.Store (b, o, _)) -> (Event.Store, Some (Event.Store, r.(b) + o))
    | Some (r, Types.Flush (b, o)) -> (Event.Flush, Some (Event.Flush, r.(b) + o))
    | Some (r, (Types.Atomic_rmw (_, _, b, o, _) | Types.Cas (_, b, o, _, _))) ->
      (Event.Atomic, Some (Event.Atomic, r.(b) + o))
    | Some (_, Types.Ckpt _) -> (Event.Ckpt, None)
    | _ -> (Event.Alu, None)
  in
  (match accessed with
  | Some (k, a) ->
    Calls.call calls tag_access ~tid:m.tid ~step:(m.steps + 1) [ Event.tag_of_kind k; a ]
  | None -> ());
  let wrote = ref false in
  let hooks =
    {
      Machine.on_store =
        (fun ~addr ~old ~value ->
          wrote := true;
          call tag_store [ Event.tag_of_kind writer; addr; old; value ]);
      on_event =
        (fun ev ->
          let a = Event.payload ev in
          match Event.kind ev with
          | Event.Boundary ->
            call tag_boundary [ a ];
            Calls.frames calls
              (List.map
                 (fun (f : Machine.frame) ->
                   ( f.lf.findex, f.blk, f.idx, Option.value ~default:(-1) f.ret_to,
                     Array.copy f.regs ))
                 m.frames)
          | Event.Atomic ->
            call tag_atomic [ a; Memory.read m.mem a; Bool.to_int !wrote ]
          | Event.Flush -> call tag_flush [ a ]
          | Event.Fence | Event.Pfence -> call tag_fence []
          | _ -> ());
    }
  in
  Machine.step m hooks

(* How one step ended, on either core. *)
let stepped f = match f () with () -> "ok" | exception e -> Printexc.to_string e

(* Step [prog]'s hooked decode and the reference in lockstep, thread by
   thread in [Multi]'s round-robin order ([Main]: one thread), for at
   most [fuel] steps: after every step both cores must have made the
   same hook calls, ended it the same way and be equally halted.
   Returns how many atomics wrote nothing. *)
let lockstep ?(fuel = 2_000_000) ~label ?spmd prog =
  let open Cwsp_ir in
  let dcalls = Calls.create () and mcalls = Calls.create () in
  let failed = ref 0 in
  let d = recording_decode dcalls failed prog in
  let linked = Machine.link prog in
  let sts, ms =
    match spmd with
    | None -> ([| Decode.create ~traced:false d |], [| Machine.create linked |])
    | Some threads ->
      ( (Decode.create_spmd ~traced:false d ~threads ~worker:"worker").sts,
        (Multi.create linked ~threads ~worker:"worker").machines )
  in
  let budget = ref fuel in
  let running (m : Machine.t) = m.status = Machine.Running in
  let step i =
    let st = sts.(i) and m = ms.(i) in
    let dr = stepped (fun () -> Decode.run_steps st ~limit:(Decode.steps st + 1)) in
    let mr = stepped (fun () -> reference_step mcalls m) in
    if Calls.contents dcalls <> Calls.contents mcalls then
      Alcotest.failf "%s: thread %d step %d: decoded calls [%s], reference [%s]" label i
        m.steps (Calls.show dcalls) (Calls.show mcalls);
    if dr <> mr || Decode.halted st <> not (running m) then
      Alcotest.failf "%s: thread %d step %d: decoded %s, reference %s" label i m.steps
        dr mr;
    dcalls.n <- 0;
    mcalls.n <- 0;
    dr = "ok"
  in
  (try
     while Array.exists running ms && !budget > 0 do
       Array.iteri
         (fun i m ->
           let q = ref Decode.default_quantum in
           while !q > 0 && running m && !budget > 0 do
             decr budget;
             decr q;
             if not (step i) then raise Exit
           done)
         ms
     done
   with Exit -> ());
  !failed

let compile config prog = (Cwsp_compiler.Pipeline.compile ~config prog).prog

let test_hooked_registry () =
  List.iter
    (fun (w : Cwsp_workloads.Defs.t) ->
      List.iter
        (fun config ->
          let label =
            Printf.sprintf "%s/%s" w.name (Cwsp_compiler.Pipeline.config_name config)
          in
          ignore (lockstep ~label (compile config (w.build ~scale:1))))
        Cwsp_compiler.Pipeline.[ baseline; cwsp; cwsp_explicit ])
    Cwsp_workloads.Registry.all

let test_hooked_fuzz () =
  for seed = 1 to 60 do
    let prog = Fuzz_gen.gen_program seed in
    List.iter
      (fun config ->
        let label =
          Printf.sprintf "seed %d/%s" seed (Cwsp_compiler.Pipeline.config_name config)
        in
        ignore (lockstep ~label (compile config prog)))
      Cwsp_compiler.Pipeline.[ cwsp; cwsp_explicit ]
  done

(* SPMD workers, racy ones included, at 1, 2 and 4 threads; contended
   spinlocks must show a failed CAS somewhere. *)
let test_hooked_spmd () =
  let failed_cas = ref 0 in
  for seed = 1 to 30 do
    let prog = compile Cwsp_compiler.Pipeline.cwsp (fst (Fuzz_gen.gen_spmd_program seed)) in
    List.iter
      (fun threads ->
        failed_cas :=
          !failed_cas
          + lockstep ~label:(Printf.sprintf "spmd seed %d@%d" seed threads) ~spmd:threads
              prog)
      [ 1; 2; 4 ]
  done;
  if !failed_cas = 0 then Alcotest.fail "no failed CAS in the SPMD runs"

let () =
  Alcotest.run "decode"
    [
      ( "differential",
        [
          Alcotest.test_case "registry identity (all workloads x 5 configs)"
            `Slow test_registry_identity;
          Alcotest.test_case
            "SPMD identity (all parallel workloads x 4 thread counts x 2 configs)"
            `Slow test_spmd_identity;
          Alcotest.test_case "SPMD fuzz differential (30 programs x 2 thread counts)"
            `Slow test_spmd_fuzz_differential;
          Alcotest.test_case "fuzz differential (80 programs x 2 configs)"
            `Slow test_fuzz_differential;
          Alcotest.test_case "oracle trace roundtrip" `Quick
            test_oracle_trace_roundtrip;
          Alcotest.test_case "untraced run equals traced run" `Quick
            test_untraced_matches_traced;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "registry hook calls (all workloads x 3 configs)" `Slow
            test_hooked_registry;
          Alcotest.test_case "fuzz hook calls (60 programs x 2 configs)" `Slow
            test_hooked_fuzz;
          Alcotest.test_case "SPMD hook calls (30 workers x 1, 2, 4 threads)" `Slow
            test_hooked_spmd;
        ] );
    ]
