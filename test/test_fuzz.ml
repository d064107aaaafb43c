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

(* ---- the decoded baseline against the reference machine ---- *)

module Oracle = Cwsp_fuzz.Oracle
module Machine = Cwsp_interp.Machine

(* The screened baseline as the reference machine runs it: step [main]
   for at most [Oracle.baseline_fuel] steps, each data access screened
   before its step. *)
let reference_baseline (prog : Prog.t) : (Oracle.base_run, string) result =
  let wild a =
    a < 0 || a land 7 <> 0 || Layout.is_ckpt_addr a || Layout.is_flight_addr a
  in
  let screen_step (m : Machine.t) =
    match m.frames with
    | fr :: _ when fr.idx < Array.length fr.lf.code.(fr.blk) -> (
      match fr.lf.code.(fr.blk).(fr.idx) with
      | Types.Load (_, b, o) | Types.Store (b, o, _) | Types.Flush (b, o)
      | Types.Atomic_rmw (_, _, b, o, _) | Types.Cas (_, b, o, _, _) ->
        if wild (fr.regs.(b) + o) then raise Exit
      | _ -> ())
    | _ -> ()
  in
  let m = Machine.create (Machine.link prog) in
  let steps = ref 0 in
  try
    while m.status = Machine.Running && !steps < Oracle.baseline_fuel do
      incr steps;
      screen_step m;
      Machine.step m Machine.no_hooks
    done;
    if m.status = Machine.Running then Error "fuel"
    else Ok { Oracle.br_outputs = Machine.outputs m; br_mem = m.mem }
  with
  | Exit -> Error "wild"
  | _ -> Error "trap"

let outcome_name = function Ok _ -> "ok" | Error why -> why

(* [main] counts to [iters], then [pad] moves, then returns *)
let counting_program ~iters ~pad =
  let open Builder in
  let b = program () in
  func b "main" ~nparams:0 (fun fb ->
      ignore (loop fb ~from:(Imm 0) ~below:(Imm iters) (fun _ -> ()));
      for _ = 1 to pad do
        ignore (mov fb (Imm 0))
      done;
      ret fb None);
  set_main b "main";
  finish b

(* [main] runs one data access at [addr], through a register *)
let one_access addr access =
  let open Builder in
  let b = program () in
  func b "main" ~nparams:0 (fun fb ->
      let r = imm fb addr in
      access fb r;
      call_void fb "__out" [ Imm 1 ];
      ret fb None);
  set_main b "main";
  finish b

(* [main] recurses past the call-depth limit: a trap *)
let deep_recursion () =
  let open Builder in
  let b = program () in
  func b "down" ~nparams:0 (fun fb ->
      call_void fb "down" [];
      ret fb None);
  func b "main" ~nparams:0 (fun fb ->
      call_void fb "down" [];
      ret fb None);
  set_main b "main";
  finish b

(* [main] holds a checkpoint of a register past a frame's slots, which
   the reference rejects only when it executes: in a block that never
   runs ([executed] false) or in the entry block *)
let oversized_ckpt ~executed =
  let r = Layout.ckpt_slots_per_frame in
  let ckpt = { Prog.instrs = [ Types.Ckpt r ]; term = Types.Ret None } in
  let main =
    {
      Prog.name = "main";
      nparams = 0;
      nregs = r + 1;
      blocks =
        (if executed then [| ckpt |]
         else [| { instrs = []; term = Types.Ret None }; ckpt |]);
    }
  in
  { Prog.globals = []; funcs = [ ("main", main) ]; main = "main" }

let test_decoded_baseline () =
  (* the two agree on [prog]; their outcome *)
  let check name prog =
    let got = Oracle.baseline_run prog and want = reference_baseline prog in
    (match (got, want) with
    | Ok g, Ok w ->
      if g.br_outputs <> w.br_outputs then Alcotest.failf "%s: outputs differ" name;
      if not (Memory.equal g.br_mem w.br_mem) then
        Alcotest.failf "%s: final memory differs" name
    | Error g, Error w when g = w -> ()
    | _ ->
      Alcotest.failf "%s: decoded baseline %s, reference %s" name
        (outcome_name got) (outcome_name want));
    outcome_name want
  in
  let expect want name prog = Alcotest.(check string) name want (check name prog) in
  (* the fuel boundary: a program that halts on exactly the last step
     the baseline may take, and one that needs one step more *)
  let fuel = Oracle.baseline_fuel in
  let steps_of prog = Machine.steps (Machine.run_functional ~fuel:(2 * fuel) prog) in
  let s0 = steps_of (counting_program ~iters:0 ~pad:0) in
  let per_iter = steps_of (counting_program ~iters:1 ~pad:0) - s0 in
  let iters = (fuel - s0) / per_iter and pad = (fuel - s0) mod per_iter in
  let exact = counting_program ~iters ~pad in
  Alcotest.(check int) "boundary program length" fuel (steps_of exact);
  expect "ok" "halts at the fuel limit" exact;
  expect "fuel" "one step past the fuel limit"
    (counting_program ~iters ~pad:(pad + 1));
  (* one wild address per screened access kind and per wild class *)
  List.iteri
    (fun i addr ->
      List.iteri
        (fun j access ->
          expect "wild" (Printf.sprintf "wild %d/%d" i j) (one_access addr access))
        Builder.
          [
            (fun fb r -> ignore (load fb r 0));
            (fun fb r -> store fb r 0 (Imm 7));
            (fun fb r -> flush fb r 0);
            (fun fb r -> ignore (atomic_rmw fb Types.Add r 0 (Imm 1)));
            (fun fb r -> ignore (cas fb r 0 ~expected:(Imm 0) ~desired:(Imm 1)));
          ])
    [ -8; Layout.global_base + 3; Layout.ckpt_base; Layout.flight_base + 64 ];
  expect "trap" "deep recursion" (deep_recursion ());
  List.iter
    (fun (executed, want) ->
      let prog = oversized_ckpt ~executed in
      Validate.check_exn prog;
      expect want (Printf.sprintf "oversized checkpoint (executed %b)" executed) prog)
    [ (false, "ok"); (true, "trap") ];
  (* generator programs, SPMD mains and mutation stacks *)
  for seed = 1 to 60 do
    ignore (check (Printf.sprintf "gen %d" seed) (Fuzz_gen.gen_program seed))
  done;
  for seed = 1 to 30 do
    let prog = fst (Fuzz_gen.gen_spmd_program seed) in
    ignore (check (Printf.sprintf "spmd %d" seed) prog)
  done;
  let rng = Rng.create 0xba5e in
  for stack = 1 to 240 do
    let donor = Fuzz_gen.gen_program (1000 + stack) in
    let prog = ref (Fuzz_gen.gen_program (2000 + (stack mod 40))) in
    for depth = 1 to 1 + (stack mod 6) do
      match Cwsp_fuzz.Mutate.mutate rng ~donor !prog with
      | Some (_, p) ->
        prog := p;
        ignore (check (Printf.sprintf "mutant %d.%d" stack depth) p)
      | None -> ()
    done
  done

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
          Alcotest.test_case "decoded baseline matches the reference machine" `Slow
            test_decoded_baseline;
        ] );
    ]
