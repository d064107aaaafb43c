(* Compiler fuzzing: randomized programs pushed through the full cWSP
   pipeline with two oracles —

   1. semantic equivalence: the instrumented binary produces the same
      outputs and final memory as the uninstrumented one;
   2. crash consistency: power failures injected at random points recover
      to a bit-exact NVM state and an exactly-once output stream.

   Programs come from the shared [Cwsp_fuzz.Gen] generator (the fuzzing
   subsystem's seed source); every seed that fails is reproducible from
   its number. *)

open Cwsp_ir
open Cwsp_util
module Fuzz_gen = Cwsp_fuzz.Gen

(* program-visible memory: everything outside the hardware-managed
   checkpoint area (checkpoints are genuine stores, so the instrumented
   binary legitimately differs there) *)
let data_words mem =
  let out = ref [] in
  Cwsp_ir.Memory.iter
    (fun a v -> if not (Cwsp_ir.Layout.is_ckpt_addr a) then out := (a, v) :: !out)
    mem;
  List.sort compare !out

let run_outputs prog =
  let m = Cwsp_interp.Machine.create (Cwsp_interp.Machine.link prog) in
  Cwsp_interp.Machine.run ~fuel:2_000_000 m Cwsp_interp.Machine.no_hooks;
  m

let test_semantic_equivalence () =
  for seed = 1 to 120 do
    let prog = Fuzz_gen.gen_program seed in
    Validate.check_exn prog;
    let baseline =
      Cwsp_compiler.Pipeline.compile ~config:Cwsp_compiler.Pipeline.baseline prog
    in
    let cwsp = Cwsp_compiler.Pipeline.compile ~config:Cwsp_compiler.Pipeline.cwsp prog in
    let mb = run_outputs baseline.prog in
    let mc = run_outputs cwsp.prog in
    if Cwsp_interp.Machine.outputs mb <> Cwsp_interp.Machine.outputs mc then
      Alcotest.failf "seed %d: outputs diverge" seed;
    if data_words mb.mem <> data_words mc.mem then
      Alcotest.failf "seed %d: final memory diverges" seed
  done

let test_regions_clean () =
  for seed = 1 to 120 do
    let prog = Fuzz_gen.gen_program seed in
    let cwsp = Cwsp_compiler.Pipeline.compile ~config:Cwsp_compiler.Pipeline.cwsp prog in
    List.iter
      (fun (name, fn) ->
        match Cwsp_idem.Antidep.violations fn with
        | [] -> ()
        | v ->
          Alcotest.failf "seed %d: %s has %d antidependences, e.g. %s" seed name
            (List.length v)
            (Cwsp_idem.Antidep.pair_to_string (List.hd v)))
      cwsp.prog.funcs
  done

let test_crash_recovery_fuzz () =
  let rng = Rng.create 424242 in
  for seed = 1 to 60 do
    let prog = Fuzz_gen.gen_program seed in
    let compiled =
      Cwsp_compiler.Pipeline.compile ~config:Cwsp_compiler.Pipeline.cwsp prog
    in
    let _, tr = Cwsp_interp.Machine.trace_of_program compiled.prog in
    (* crash points follow the program's actual boundary structure: one
       per inter-boundary interval (a fixed count would oversample short
       programs and leave long ones with untested intervals) *)
    List.iter
      (fun crash_at ->
        match
          Cwsp_recovery.Harness.validate ~seed:(Rng.int rng 100000) ~crash_at
            compiled
        with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "seed %d crash@%d: %s" seed crash_at e)
      (Cwsp_fuzz.Oracle.boundary_crash_points rng ~trace:tr ~max_points:8)
  done

(* Alias-analysis soundness against dynamic behaviour: for every pair of
   accesses in [main] that the analysis claims can NEVER alias, check
   that no execution ever touches a common address from both. *)
let test_alias_soundness () =
  for seed = 1 to 80 do
    let prog = Fuzz_gen.gen_program seed in
    let fn = Prog.func_exn prog "main" in
    let accesses = Cwsp_analysis.Alias.accesses fn in
    (* dynamic address sets per static position, collected by stepping
       the machine and inspecting the current frame *)
    let dyn : (int * int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
    let record pos addr =
      let tbl =
        match Hashtbl.find_opt dyn pos with
        | Some t -> t
        | None ->
          let t = Hashtbl.create 8 in
          Hashtbl.add dyn pos t;
          t
      in
      Hashtbl.replace tbl addr ()
    in
    let linked = Cwsp_interp.Machine.link prog in
    let m = Cwsp_interp.Machine.create linked in
    let main_idx = linked.main_idx in
    let steps = ref 0 in
    while m.status = Cwsp_interp.Machine.Running && !steps < 500_000 do
      incr steps;
      (match m.frames with
      | fr :: _ when fr.lf.findex = main_idx && fr.idx < Array.length fr.lf.code.(fr.blk)
        -> (
        match fr.lf.code.(fr.blk).(fr.idx) with
        | Types.Load (_, base, off) -> record (fr.blk, fr.idx) (fr.regs.(base) + off)
        | Types.Store (base, off, _) -> record (fr.blk, fr.idx) (fr.regs.(base) + off)
        | Types.Atomic_rmw (_, _, base, off, _) | Types.Cas (_, base, off, _, _) ->
          record (fr.blk, fr.idx) (fr.regs.(base) + off)
        | _ -> ())
      | _ -> ());
      Cwsp_interp.Machine.step m Cwsp_interp.Machine.no_hooks
    done;
    (* every no-alias claim must hold dynamically *)
    List.iter
      (fun (a : Cwsp_analysis.Alias.access) ->
        List.iter
          (fun (b : Cwsp_analysis.Alias.access) ->
            if
              (a.a_bi, a.a_ii) < (b.a_bi, b.a_ii)
              && not (Cwsp_analysis.Alias.may_alias a.sym b.sym)
            then
              match
                ( Hashtbl.find_opt dyn (a.a_bi, a.a_ii),
                  Hashtbl.find_opt dyn (b.a_bi, b.a_ii) )
              with
              | Some ta, Some tb ->
                Hashtbl.iter
                  (fun addr () ->
                    if Hashtbl.mem tb addr then
                      Alcotest.failf
                        "seed %d: no-alias claim violated at 0x%x between \
                         (%d,%d) and (%d,%d)"
                        seed addr a.a_bi a.a_ii b.a_bi b.a_ii)
                  ta
              | _ -> ())
          accesses)
      accesses
  done

(* SPMD semantic equivalence, DRF seeds only: instrumentation changes
   the instruction counts and therefore the round-robin interleaving,
   but a data-race-free program's result must not depend on the
   interleaving (the SC-for-DRF premise) — so the instrumented binary
   must still produce the baseline's final data memory. Racy seeds are
   skipped: their result is interleaving-dependent by design, and the
   pipeline hook below would (correctly) reject compiling them. *)
let test_spmd_semantic_equivalence () =
  for seed = 1 to 40 do
    let prog, kind = Fuzz_gen.gen_spmd_program seed in
    if kind = `Drf then begin
      let run config =
        let compiled = Cwsp_compiler.Pipeline.compile ~config prog in
        let t, _ =
          Cwsp_interp.Multi.traces_of_program ~fuel:2_000_000 compiled.prog
            ~threads:3 ~worker:"worker"
        in
        data_words t.mem
      in
      if
        run Cwsp_compiler.Pipeline.baseline <> run Cwsp_compiler.Pipeline.cwsp
      then Alcotest.failf "spmd seed %d: final memory diverges" seed
    end
  done

(* The static verifier as a fuzzing oracle: every randomized program,
   compiled under every instrumented configuration, must verify clean. *)
let test_verifier_clean () =
  List.iter
    (fun config ->
      for seed = 1 to 80 do
        let prog = Fuzz_gen.gen_program seed in
        let compiled = Cwsp_compiler.Pipeline.compile ~config prog in
        match Cwsp_verify.Verify.(errors (run compiled)) with
        | [] -> ()
        | errs ->
          Alcotest.failf "seed %d (%s): %s" seed
            (Cwsp_compiler.Pipeline.config_name config)
            (Cwsp_verify.Verify.report errs)
      done)
    Cwsp_compiler.Pipeline.[ cwsp; cwsp_no_prune; regions_only ]

let () =
  (* have every compile below re-checked by the static verifier *)
  Cwsp_verify.Verify.install_pipeline_hook ();
  Alcotest.run "fuzz"
    [
      ( "pipeline",
        [
          Alcotest.test_case "semantic equivalence (120 programs)" `Slow
            test_semantic_equivalence;
          Alcotest.test_case "regions clean (120 programs)" `Slow
            test_regions_clean;
          Alcotest.test_case "crash recovery (60 programs, boundary sweep)" `Slow
            test_crash_recovery_fuzz;
          Alcotest.test_case "alias soundness (80 programs)" `Slow
            test_alias_soundness;
          Alcotest.test_case "SPMD semantic equivalence (DRF seeds of 40)" `Slow
            test_spmd_semantic_equivalence;
          Alcotest.test_case "verifier clean (80 programs x 3 configs)" `Slow
            test_verifier_clean;
        ] );
    ]
