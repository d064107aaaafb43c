(* End-to-end tests for explicit persistency: the [Persist_order]
   analysis driving certified flush/pfence insertion, the [Persist_check]
   verifier tier, and the dynamic explicit-persistency crash oracle.

   Positive direction: every registry workload compiled in explicit mode
   verifies with zero persist diagnostics — no errors AND no warnings
   (warnings would mean the inserted placement is not minimal) — and a
   strided power-failure sweep over the explicit durability oracle
   recovers a bit-exact state at every crash point.

   Negative direction: a mutation corpus built from the real compiled
   binary — drop one flush, drop one pfence — where each mutant must be
   (a) caught statically by Persist_check and (b) shown actually losing
   data dynamically at some crash point under blind recovery, i.e. the
   static tier is not crying wolf: what it flags is a real durability
   hole. *)

open Cwsp_ir
open Cwsp_compiler

let explicit_config = Pipeline.cwsp_explicit

(* The oracle corpus workload: small (fast sweeps) and its stores change
   memory values, so a lost store is dynamically observable. *)
let corpus_workload = "lu-ncg"

let compile_explicit name =
  let w = Cwsp_workloads.Registry.find_exn name in
  Pipeline.compile ~config:explicit_config (w.build ~scale:1)

(* ---- mutation plumbing: drop the nth flush / pfence in [fname] ---- *)

let drop_in fname ~what n (c : Pipeline.compiled) : Pipeline.compiled =
  let k = ref (-1) in
  let funcs =
    List.map
      (fun (name, (fn : Prog.func)) ->
        if name <> fname then (name, fn)
        else
          let blocks =
            Array.map
              (fun (b : Prog.block) ->
                let instrs =
                  List.filter
                    (fun i ->
                      match (i, what) with
                      | Types.Flush _, `Flush ->
                        incr k;
                        !k <> n
                      | Types.Pfence, `Pfence ->
                        incr k;
                        !k <> n
                      | _ -> true)
                    b.instrs
                in
                { b with instrs })
              fn.blocks
          in
          (name, { fn with blocks }))
      c.prog.funcs
  in
  { c with prog = { c.prog with funcs } }

(* ---- dynamic sweep over the explicit durability oracle ---- *)

let golden_steps (c : Pipeline.compiled) =
  let m = Cwsp_interp.Machine.create (Cwsp_interp.Machine.link c.prog) in
  Cwsp_interp.Machine.run m Cwsp_interp.Machine.no_hooks;
  Cwsp_interp.Machine.steps m

(* Strided crash points across the whole execution; returns the number
   of sweeps whose recovered state diverged, plus the first error. *)
let sweep ~points ~steps (c : Pipeline.compiled) =
  let fails = ref 0 and first = ref None in
  for i = 0 to points - 1 do
    let crash_at = 1 + (i * (max 1 (steps - 2)) / points) in
    match Cwsp_recovery.Harness.validate_explicit ~crash_at c with
    | Ok _ -> ()
    | Error e ->
      incr fails;
      if !first = None then first := Some (crash_at, e)
  done;
  (!fails, !first)

let has_rule rule diags =
  List.exists (fun (d : Cwsp_verify.Diag.t) -> d.rule = rule) diags

(* ---- positive: the whole registry is certified in explicit mode ---- *)

let test_registry_explicit_clean () =
  List.iter
    (fun (w : Cwsp_workloads.Defs.t) ->
      let c = Pipeline.compile ~config:explicit_config (w.build ~scale:1) in
      match Cwsp_verify.Verify.(normalize (run c)) with
      | [] -> ()
      | ds ->
        Alcotest.failf "%s: explicit compile not clean:\n%s" w.name
          (Cwsp_verify.Verify.report ds))
    Cwsp_workloads.Registry.all

(* the explicit config reports a distinct name, so memo/report rows of
   implicit and explicit compiles can never be confused *)
let test_config_names () =
  Alcotest.(check string)
    "explicit name" "cwsp-explicit"
    (Pipeline.config_name explicit_config);
  Alcotest.(check string) "implicit name unchanged" "cwsp"
    (Pipeline.config_name Pipeline.cwsp)

(* every flush the compiler inserts covers at least one store on some
   path (= the redundant-flush lint is the exact complement of the
   cleanup pass) *)
let test_insertion_minimal () =
  let c = compile_explicit corpus_workload in
  let diags = Cwsp_verify.Verify.(normalize (run c)) in
  Alcotest.(check bool) "no redundant flushes" false
    (has_rule Cwsp_verify.Diag.Redundant_flush diags)

(* the persist tier is byte-identical across executor pool widths *)
let test_jobs_determinism () =
  let names = [ "lu-ncg"; "kmeans"; "gobmk"; "fft" ] in
  let pairs =
    Array.of_list (List.map Cwsp_workloads.Registry.find_exn names)
  in
  let rows jobs =
    Cwsp_core.Executor.map_pool ~cat:"test-persist"
      ~label:(fun i -> pairs.(i).Cwsp_workloads.Defs.name)
      ~jobs
      (fun (w : Cwsp_workloads.Defs.t) ->
        let c = Pipeline.compile ~config:explicit_config (w.build ~scale:1) in
        Cwsp_verify.Verify.(report_json (normalize (run c))))
      pairs
  in
  let rows1 = rows 1 in
  Alcotest.(check (array string)) "jobs=1 equals jobs=4" rows1 (rows 4);
  Alcotest.(check string) "report_json bytes pinned" "6227b75b22b56149f66582a2a414d64b"
    (Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list rows1))))

(* ---- positive: the oracle recovers at every strided crash point ---- *)

let test_oracle_positive_sweep () =
  let c = compile_explicit corpus_workload in
  let steps = golden_steps c in
  let fails, first = sweep ~points:12 ~steps c in
  match first with
  | None -> Alcotest.(check int) "no failures" 0 fails
  | Some (at, e) ->
    Alcotest.failf "%d/12 crash points diverged; first @%d: %s" fails at e

(* ---- negative: the mutation corpus ---- *)

(* Each mutant must be caught statically with the expected rule AND
   escape dynamically at some crash point when checking is off. *)
let check_mutant name ~rule ~steps mutant =
  let diags = Cwsp_verify.Verify.(normalize (run mutant)) in
  let errs = Cwsp_verify.Verify.errors diags in
  if errs = [] then Alcotest.failf "%s: not caught statically" name;
  if not (has_rule rule errs) then
    Alcotest.failf "%s: expected %s, verifier said:\n%s" name
      (Cwsp_verify.Diag.rule_name rule)
      (Cwsp_verify.Verify.report errs);
  let escapes, _ = sweep ~points:40 ~steps mutant in
  if escapes = 0 then
    Alcotest.failf
      "%s: caught statically but never escaped dynamically — the \
       diagnostic may be vacuous"
      name

let test_mutant_dropped_flush () =
  let c = compile_explicit corpus_workload in
  let steps = golden_steps c in
  check_mutant "drop-flush" ~rule:Cwsp_verify.Diag.Missing_flush ~steps
    (drop_in "main" ~what:`Flush 0 c)

let test_mutant_dropped_pfence () =
  let c = compile_explicit corpus_workload in
  let steps = golden_steps c in
  check_mutant "drop-pfence" ~rule:Cwsp_verify.Diag.Missing_fence ~steps
    (drop_in "main" ~what:`Pfence 0 c)

(* the implicit-mode verifier must NOT be affected: the same drop on an
   implicit compile (which has no flushes at all) stays clean, i.e. the
   persist tier really is gated on the explicit mode *)
let test_implicit_unaffected () =
  let w = Cwsp_workloads.Registry.find_exn corpus_workload in
  let c = Pipeline.compile ~config:Pipeline.cwsp (w.build ~scale:1) in
  let diags = Cwsp_verify.Verify.(normalize (run c)) in
  List.iter
    (fun rule ->
      Alcotest.(check bool)
        (Cwsp_verify.Diag.rule_name rule ^ " absent in implicit mode")
        false (has_rule rule diags))
    Cwsp_verify.Diag.
      [ Missing_flush; Missing_fence; Early_commit; Redundant_flush ]

(* explicit compiles carry no flush into the implicit engine semantics:
   the explicit binary still computes the same outputs *)
let test_explicit_preserves_behaviour () =
  let w = Cwsp_workloads.Registry.find_exn corpus_workload in
  let imp = Pipeline.compile ~config:Pipeline.cwsp (w.build ~scale:1) in
  let exp = compile_explicit corpus_workload in
  let run p =
    Cwsp_interp.Machine.outputs (Cwsp_interp.Machine.run_functional p)
  in
  Alcotest.(check (list int))
    "same device outputs" (run imp.prog) (run exp.prog)

let () =
  Alcotest.run "persist"
    [
      ( "static",
        [
          Alcotest.test_case "registry certified in explicit mode" `Slow
            test_registry_explicit_clean;
          Alcotest.test_case "config names" `Quick test_config_names;
          Alcotest.test_case "insertion minimal" `Quick test_insertion_minimal;
          Alcotest.test_case "pool-width determinism" `Quick
            test_jobs_determinism;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "positive crash sweep" `Slow
            test_oracle_positive_sweep;
          Alcotest.test_case "behaviour preserved" `Quick
            test_explicit_preserves_behaviour;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "dropped flush" `Slow test_mutant_dropped_flush;
          Alcotest.test_case "dropped pfence" `Slow test_mutant_dropped_pfence;
          Alcotest.test_case "implicit unaffected" `Quick
            test_implicit_unaffected;
        ] );
    ]
