(** Whole-system persistence across the user/kernel boundary
    (Sections IV-D and VI of the paper).

    A user program pushes records through [entry_syscall_64] (the
    hand-annotated "assembly" stub) into the kernel's file state, with
    power failures injected inside the syscall path itself: in the entry
    stub, the dispatcher, the sys_write handler and the allocator. Crash
    consistency must hold across all of them because *every* layer is
    partitioned into recoverable regions.

    Run with: dune exec examples/whole_stack.exe *)

open Cwsp_ir

let build () =
  let b = Builder.program () in
  Cwsp_runtime.Libc.add b;
  Cwsp_runtime.Kernel.add b;
  Builder.global b "record" ~size:64 ();
  Builder.global b "inbox" ~size:64 ();
  Builder.global b "checksum" ~size:8 ();
  Builder.func b "main" ~nparams:0 (fun fb ->
      let open Builder in
      let rc = la fb "record" in
      let inbox = la fb "inbox" in
      (* write 40 records through the kernel, reading some back *)
      let _ =
        loop fb ~from:(Imm 0) ~below:(Imm 40) (fun i ->
            (* build a record in a malloc'd staging buffer *)
            let buf = call fb "malloc" [ Imm 16 ] in
            store fb buf 0 (Reg i);
            store fb buf 8 (Reg (bin fb Mul (Reg i) (Reg i)));
            let _ = call fb "memcpy" [ Reg rc; Reg buf; Imm 16 ] in
            call_void fb "free" [ Reg buf ];
            let _ =
              call fb "entry_syscall_64"
                [ Imm Cwsp_runtime.Kernel.sys_write_no; Reg rc; Imm 2 ]
            in
            let _ =
              call fb "entry_syscall_64"
                [ Imm Cwsp_runtime.Kernel.sys_read_no; Reg inbox; Imm 1 ]
            in
            ())
      in
      let pid =
        call fb "entry_syscall_64"
          [ Imm Cwsp_runtime.Kernel.sys_getpid_no; Reg rc; Imm 0 ]
      in
      let v = load fb inbox 0 in
      let ck = la fb "checksum" in
      store fb ck 0 (Reg (add fb (Reg v) (Reg pid)));
      call_void fb "__out" [ Reg pid ];
      ret fb None);
  Builder.set_main b "main";
  Builder.finish b

let () =
  let prog = build () in
  let compiled =
    Cwsp_compiler.Pipeline.compile ~config:Cwsp_compiler.Pipeline.cwsp prog
  in
  print_endline "regions per layer of the stack:";
  List.iter
    (fun (r : Cwsp_compiler.Pipeline.func_report) ->
      let layer =
        if List.mem r.fr_name Cwsp_runtime.Kernel.function_names then "kernel"
        else if List.mem r.fr_name Cwsp_runtime.Libc.function_names then "libc"
        else "user"
      in
      Printf.printf "  %-6s %-20s %3d regions, %2d checkpoints kept\n" layer
        r.fr_name r.static_regions r.ckpts_kept)
    compiled.reports;

  print_endline "\nmanually annotated syscall entry stub (Fig. 11):";
  print_string (Pp.func_str (Prog.func_exn compiled.prog "entry_syscall_64"));

  (* attribute each dynamic instruction to a layer, then crash inside the
     kernel-heavy band *)
  let _, tr = Cwsp_ir.Decode.trace_of_program compiled.prog in
  let total = Cwsp_ir.Trace.length tr in
  let failures = ref 0 and runs = ref 0 in
  for i = 0 to 299 do
    incr runs;
    let crash_at = 1 + (i * (total - 2) / 300) in
    match Cwsp_recovery.Harness.validate ~seed:i ~crash_at compiled with
    | Ok _ -> ()
    | Error e ->
      incr failures;
      Printf.printf "  FAIL: %s\n" e
  done;
  Printf.printf
    "\n%d power failures across user code, libc and the kernel path: %d \
     inconsistencies\n"
    !runs !failures
