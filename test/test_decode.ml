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
      allocator calls, atomics) through both compile configurations. *)

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
    ]
