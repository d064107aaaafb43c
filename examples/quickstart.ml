(** Quickstart: compile a small program with the cWSP pipeline, look at
    what the compiler did, run it, and time it against the baseline.

    Run with: dune exec examples/quickstart.exe *)

open Cwsp_ir

(* A little program: fill an array, then sum it through a function call. *)
let build () =
  let b = Builder.program () in
  Cwsp_runtime.Libc.add b;
  Cwsp_runtime.Kernel.add b;
  Builder.global b "data" ~size:(512 * 8) ();
  Builder.func b "sum" ~nparams:2 (fun fb ->
      let open Builder in
      let arr = param fb 0 and n = param fb 1 in
      let acc = imm fb 0 in
      let _ =
        loop fb ~from:(Imm 0) ~below:(Reg n) (fun i ->
            let v = load fb (bin fb Add (Reg arr) (Reg (bin fb Shl (Reg i) (Imm 3)))) 0 in
            emit fb (Types.Bin (Add, acc, Reg acc, Reg v)))
      in
      ret fb (Some (Reg acc)));
  Builder.func b "main" ~nparams:0 (fun fb ->
      let open Builder in
      let arr = la fb "data" in
      let _ =
        loop fb ~from:(Imm 0) ~below:(Imm 512) (fun i ->
            store fb (bin fb Add (Reg arr) (Reg (bin fb Shl (Reg i) (Imm 3)))) 0 (Reg i))
      in
      let total = call fb "sum" [ Reg arr; Imm 512 ] in
      call_void fb "__out" [ Reg total ];
      ret fb None);
  Builder.set_main b "main";
  Builder.finish b

let () =
  let prog = build () in

  (* 1. compile: idempotent region formation + checkpoint insertion +
        pruning + recovery-slice construction *)
  let compiled =
    Cwsp_compiler.Pipeline.compile ~config:Cwsp_compiler.Pipeline.cwsp prog
  in
  print_string (Cwsp_compiler.Pipeline.report_to_string compiled);

  (* 2. the instrumented binary behaves exactly like the original *)
  let m, tr_cwsp = Cwsp_ir.Decode.trace_of_program compiled.prog in
  Printf.printf "\nprogram output: %s (expected %d)\n"
    (String.concat "," (List.map string_of_int (Cwsp_ir.Decode.outputs m)))
    (511 * 512 / 2);

  (* 3. trace once, replay under the baseline and under cWSP hardware *)
  let baseline =
    Cwsp_compiler.Pipeline.compile ~config:Cwsp_compiler.Pipeline.baseline prog
  in
  let _, tr_base = Cwsp_ir.Decode.trace_of_program baseline.prog in
  let cfg = Cwsp_sim.Config.default in
  let st_base = Cwsp_sim.Engine.run_trace cfg Cwsp_sim.Engine.Baseline tr_base in
  let st_cwsp =
    Cwsp_sim.Engine.run_trace cfg (Cwsp_sim.Engine.Cwsp Cwsp_sim.Engine.cwsp_full) tr_cwsp
  in
  Printf.printf "baseline: %.0f ns;  cWSP: %.0f ns;  overhead: %.1f%%\n"
    st_base.elapsed_ns st_cwsp.elapsed_ns
    (100.0 *. (Cwsp_sim.Stats.slowdown st_cwsp ~baseline:st_base -. 1.0));

  (* 4. cut power at a few points and check crash consistency *)
  let total = Cwsp_ir.Trace.length tr_cwsp in
  let ok = ref 0 in
  let points = 20 in
  for i = 0 to points - 1 do
    let crash_at = 1 + (i * (total - 2) / points) in
    match Cwsp_recovery.Harness.validate ~seed:i ~crash_at compiled with
    | Ok _ -> incr ok
    | Error e -> Printf.printf "recovery FAILED: %s\n" e
  done;
  Printf.printf "crash recovery: %d/%d power-failure points recovered bit-exactly\n"
    !ok points
