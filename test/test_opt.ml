(* Tests for the scalar optimizer (constant folding, copy propagation,
   dead-code elimination) and the dominator analysis it leans on. *)

open Cwsp_ir
open Types

let func_of body =
  let b = Builder.program () in
  Builder.global b "g" ~size:64 ();
  Builder.func b "main" ~nparams:0 (fun fb ->
      body fb;
      Builder.ret fb None);
  Builder.set_main b "main";
  let p = Builder.finish b in
  Validate.check_exn p;
  Prog.func_exn p "main"

let instr_count fn = Prog.instr_count fn

let all_instrs fn =
  Array.to_list fn.Prog.blocks |> List.concat_map (fun (b : Prog.block) -> b.instrs)

(* ---- constant folding ---- *)

let test_fold_constants () =
  let fn =
    func_of (fun fb ->
        let open Builder in
        let a = imm fb 6 in
        let b' = imm fb 7 in
        let c = mul fb (Reg a) (Reg b') in
        let g = la fb "g" in
        store fb g 0 (Reg c))
  in
  let fn' = Cwsp_compiler.Opt.run_func fn in
  (* the product must be folded to 42 and stored as an immediate *)
  let stores_42 =
    List.exists
      (fun i -> match i with Store (_, 0, Imm 42) -> true | _ -> false)
      (all_instrs fn')
  in
  Alcotest.(check bool) "folded to store-imm" true stores_42;
  Alcotest.(check bool) "shrank" true (instr_count fn' < instr_count fn)

let test_fold_branch () =
  let fn =
    func_of (fun fb ->
        let open Builder in
        let c = cmp fb Lt (Imm 1) (Imm 2) in
        let g = la fb "g" in
        if_ fb c
          ~then_:(fun () -> store fb g 0 (Imm 1))
          ~else_:(fun () -> store fb g 0 (Imm 2)))
  in
  let fn' = Cwsp_compiler.Opt.run_func fn in
  (* the conditional branch must have become an unconditional jump *)
  let has_br =
    Array.exists
      (fun (b : Prog.block) -> match b.term with Br _ -> true | _ -> false)
      fn'.blocks
  in
  Alcotest.(check bool) "branch folded" false has_br

(* ---- copy propagation ---- *)

let test_copy_propagation () =
  let fn =
    func_of (fun fb ->
        let open Builder in
        let g = la fb "g" in
        let v = load fb g 0 in
        let w = mov fb (Reg v) in
        let x = mov fb (Reg w) in
        store fb g 8 (Reg x))
  in
  let fn' = Cwsp_compiler.Opt.run_func fn in
  (* the copies are dead after propagation; store reads the load directly *)
  Alcotest.(check bool) "copies eliminated" true
    (instr_count fn' <= instr_count fn - 2)

(* ---- dead code elimination ---- *)

let test_dce_removes_dead_chain () =
  let fn =
    func_of (fun fb ->
        let open Builder in
        let a = imm fb 1 in
        let b' = add fb (Reg a) (Imm 2) in
        let _dead = mul fb (Reg b') (Imm 3) in
        let g = la fb "g" in
        store fb g 0 (Imm 9))
  in
  let fn' = Cwsp_compiler.Opt.run_func fn in
  (* only la + store remain *)
  Alcotest.(check int) "two instructions left" 2 (instr_count fn')

let test_dce_keeps_side_effects () =
  let fn =
    func_of (fun fb ->
        let open Builder in
        let g = la fb "g" in
        let _ret_unused = atomic_rmw fb Add g 0 (Imm 1) in
        store fb g 8 (Imm 5);
        fence fb)
  in
  let fn' = Cwsp_compiler.Opt.run_func fn in
  let kinds = all_instrs fn' in
  Alcotest.(check bool) "atomic kept" true
    (List.exists (function Atomic_rmw _ -> true | _ -> false) kinds);
  Alcotest.(check bool) "fence kept" true
    (List.exists (function Fence -> true | _ -> false) kinds);
  Alcotest.(check bool) "store kept" true
    (List.exists (function Store _ -> true | _ -> false) kinds)

(* ---- end-to-end semantics preservation ---- *)

let test_semantics_preserved () =
  List.iter
    (fun name ->
      let w = Cwsp_workloads.Registry.find_exn name in
      let p = w.build ~scale:1 in
      let plain = Cwsp_interp.Machine.run_functional p in
      let opt = Cwsp_interp.Machine.run_functional (Cwsp_compiler.Opt.run p) in
      Alcotest.(check (list int))
        (name ^ " outputs")
        (Cwsp_interp.Machine.outputs plain)
        (Cwsp_interp.Machine.outputs opt);
      Alcotest.(check bool) (name ^ " memory") true
        (Cwsp_ir.Memory.equal plain.mem opt.mem))
    [ "bzip2"; "sjeng"; "radix"; "c" ]

let test_idempotent () =
  let w = Cwsp_workloads.Registry.find_exn "gobmk" in
  let p1 = Cwsp_compiler.Opt.run (w.build ~scale:1) in
  let p2 = Cwsp_compiler.Opt.run p1 in
  Alcotest.(check int) "fixpoint reached" (Prog.total_instr_count p1)
    (Prog.total_instr_count p2)

(* ---- dominators ---- *)

let test_dominators_diamond () =
  let fn =
    func_of (fun fb ->
        let open Builder in
        let g = la fb "g" in
        let c = load fb g 0 in
        if_ fb c
          ~then_:(fun () -> store fb g 8 (Imm 1))
          ~else_:(fun () -> store fb g 8 (Imm 2));
        store fb g 16 (Imm 3))
  in
  let d = Cwsp_analysis.Dominators.compute fn in
  (* entry dominates everything; neither branch arm dominates the join *)
  let n = Array.length fn.blocks in
  for b = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "entry dominates %d" b)
      true
      (Cwsp_analysis.Dominators.dominates d ~a:0 ~b)
  done;
  (* blocks 1 and 2 are the arms, 3 the join (builder layout) *)
  Alcotest.(check bool) "arm does not dominate join" false
    (Cwsp_analysis.Dominators.dominates d ~a:1 ~b:3);
  Alcotest.(check (option int)) "join's idom is entry" (Some 0)
    (Cwsp_analysis.Dominators.immediate_dominator d 3)

let test_dominators_loop () =
  let fn =
    func_of (fun fb ->
        let open Builder in
        let g = la fb "g" in
        let _ =
          loop fb ~from:(Imm 0) ~below:(Imm 4) (fun i ->
              store fb (bin fb Add (Reg g) (Reg (bin fb Shl (Reg i) (Imm 3)))) 0 (Reg i))
        in
        ())
  in
  let d = Cwsp_analysis.Dominators.compute fn in
  let headers = Cwsp_analysis.Loops.headers fn in
  Array.iteri
    (fun h is_h ->
      if is_h then
        (* the loop header dominates the loop body (its successor inside
           the loop) *)
        List.iter
          (fun s ->
            if s <> h then
              Alcotest.(check bool) "header dominates body" true
                (Cwsp_analysis.Dominators.dominates d ~a:h ~b:s))
          (Cwsp_analysis.Cfg.successors fn h))
    headers

let () =
  Alcotest.run "opt"
    [
      ( "fold",
        [
          Alcotest.test_case "constants" `Quick test_fold_constants;
          Alcotest.test_case "branch" `Quick test_fold_branch;
          Alcotest.test_case "copies" `Quick test_copy_propagation;
        ] );
      ( "dce",
        [
          Alcotest.test_case "dead chain" `Quick test_dce_removes_dead_chain;
          Alcotest.test_case "side effects" `Quick test_dce_keeps_side_effects;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "preserved" `Slow test_semantics_preserved;
          Alcotest.test_case "idempotent" `Quick test_idempotent;
        ] );
      ( "dominators",
        [
          Alcotest.test_case "diamond" `Quick test_dominators_diamond;
          Alcotest.test_case "loop" `Quick test_dominators_loop;
        ] );
    ]
