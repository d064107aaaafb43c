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
        ] );
    ]
