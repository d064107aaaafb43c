(* Tests for CFG utilities, loop detection, liveness, alias analysis. *)

open Cwsp_ir
open Cwsp_analysis

(* A diamond CFG:  b0 -> (b1 | b2) -> b3 *)
let diamond_func () =
  let b = Builder.program () in
  Builder.func b "main" ~nparams:0 (fun fb ->
      let open Builder in
      let c = imm fb 1 in
      let b1 = block fb in
      let b2 = block fb in
      let b3 = block fb in
      br fb c ~ifso:b1 ~ifnot:b2;
      switch_to fb b1;
      let x1 = imm fb 10 in
      call_void fb "__out" [ Reg x1 ];
      jmp fb b3;
      switch_to fb b2;
      let x2 = imm fb 20 in
      call_void fb "__out" [ Reg x2 ];
      jmp fb b3;
      switch_to fb b3;
      ret fb None);
  Builder.set_main b "main";
  Prog.func_exn (Builder.finish b) "main"

let test_predecessors () =
  let fn = diamond_func () in
  let preds = Cfg.predecessors fn in
  Alcotest.(check (list int)) "entry no preds" [] preds.(0);
  Alcotest.(check (list int)) "join has both" [ 1; 2 ] (List.sort compare preds.(3))

let test_rpo_starts_at_entry () =
  let fn = diamond_func () in
  match Cfg.reverse_postorder fn with
  | 0 :: rest ->
    Alcotest.(check int) "all blocks" 3 (List.length rest);
    Alcotest.(check bool) "join last" true (List.nth rest 2 = 3)
  | _ -> Alcotest.fail "rpo must start at entry"

let test_loop_headers () =
  let b = Builder.program () in
  Builder.func b "main" ~nparams:0 (fun fb ->
      let open Builder in
      let _ = loop fb ~from:(Imm 0) ~below:(Imm 3) (fun _ -> ()) in
      ret fb None);
  Builder.set_main b "main";
  let fn = Prog.func_exn (Builder.finish b) "main" in
  let headers = Loops.headers fn in
  let count = Array.to_list headers |> List.filter Fun.id |> List.length in
  Alcotest.(check int) "exactly one header" 1 count;
  Alcotest.(check bool) "entry is not a header" false headers.(0)

(* ---- liveness ---- *)

let test_liveness_straightline () =
  (* r0 = param used by a store at the end; temp defined and dead quickly *)
  let b = Builder.program () in
  Builder.global b "gl" ~size:8 ();
  Builder.func b "f" ~nparams:1 (fun fb ->
      let open Builder in
      let p = param fb 0 in
      let t = imm fb 1 in
      let _dead = add fb (Reg t) (Imm 2) in
      let g = la fb "gl" in
      store fb g 0 (Reg p);
      ret fb None);
  Builder.func b "main" ~nparams:0 (fun fb ->
      Builder.call_void fb "f" [ Types.Imm 3 ];
      Builder.ret fb None);
  Builder.set_main b "main";
  let p = Builder.finish b in
  let fn = Prog.func_exn p "f" in
  let live = Liveness.compute fn in
  let at_entry = Liveness.live_before live ~bi:0 ~ii:0 in
  Alcotest.(check bool) "param live at entry" true (Liveness.IntSet.mem 0 at_entry);
  (* after the store, nothing is live *)
  let nblk = List.length fn.blocks.(0).instrs in
  let at_end = Liveness.live_before live ~bi:0 ~ii:nblk in
  Alcotest.(check int) "nothing live before ret" 0 (Liveness.IntSet.cardinal at_end)

let test_liveness_across_branch () =
  let fn = diamond_func () in
  let live = Liveness.compute fn in
  (* the condition register (defined by instr 0 of entry) is live before
     the terminator of block 0 *)
  let at_term = Liveness.live_before live ~bi:0 ~ii:1 in
  Alcotest.(check bool) "branch condition live" true
    (Liveness.IntSet.cardinal at_term > 0)

(* ---- generic dataflow solver ---- *)

(* Forward "reachable from entry" on the shared solver: bottom = false,
   join = or, transfer = identity on the inflow (plus the boundary
   seeding the entry with true). The diamond should mark every block;
   a function with an unreachable block should leave it at bottom. *)
module ReachProblem = struct
  module D = struct
    type t = bool

    let bottom = false
    let equal = Bool.equal
    let join = ( || )
  end

  type ctx = unit

  let direction = `Forward
  let boundary () _ = true
  let transfer () _ _ s = s
end

module Reach = Dataflow.Make (ReachProblem)

let test_dataflow_forward_reach () =
  let fn = diamond_func () in
  let r = Reach.solve () fn in
  Array.iteri
    (fun bi reached ->
      Alcotest.(check bool)
        (Printf.sprintf "block %d reached" bi)
        true reached)
    r.Reach.inb

let unreachable_block_func () =
  let b = Builder.program () in
  Builder.func b "main" ~nparams:0 (fun fb ->
      let open Builder in
      let dead = block fb in
      let exit_b = block fb in
      jmp fb exit_b;
      switch_to fb dead;
      let x = imm fb 99 in
      call_void fb "__out" [ Reg x ];
      jmp fb exit_b;
      switch_to fb exit_b;
      ret fb None);
  Builder.set_main b "main";
  Prog.func_exn (Builder.finish b) "main"

let test_dataflow_skips_unreachable () =
  let fn = unreachable_block_func () in
  let r = Reach.solve () fn in
  Alcotest.(check bool) "entry reached" true r.Reach.inb.(0);
  Alcotest.(check bool) "dead block stays bottom" false r.Reach.inb.(1);
  Alcotest.(check bool) "exit reached" true r.Reach.inb.(2)

(* A domain that never converges (strictly growing counter): the solver
   must detect the divergence and raise instead of spinning forever. *)
module DivergeProblem = struct
  module D = struct
    type t = int

    let bottom = 0
    let equal = Int.equal
    let join = max
  end

  type ctx = unit

  let direction = `Forward
  let boundary () _ = 1
  let transfer () _ _ s = s + 1
end

module Diverge = Dataflow.Make (DivergeProblem)

let test_dataflow_divergence_raises () =
  (* self-loop so the counter keeps flowing back into the block *)
  let b = Builder.program () in
  Builder.func b "main" ~nparams:0 (fun fb ->
      let open Builder in
      let _ = loop fb ~from:(Imm 0) ~below:(Imm 3) (fun _ -> ()) in
      ret fb None);
  Builder.set_main b "main";
  let fn = Prog.func_exn (Builder.finish b) "main" in
  match Diverge.solve () fn with
  | _ -> Alcotest.fail "divergent domain must not converge"
  | exception Failure _ -> ()

let test_reaching_defs_diamond () =
  let fn = diamond_func () in
  let r = Reaching_defs.solve fn in
  (* the branch condition (r0, defined in entry) reaches the join *)
  Alcotest.(check bool) "entry def reaches join" true
    (Reaching_defs.IntSet.mem 0 r.Reaching_defs.inb.(3));
  (* defs from both arms reach the join, but nothing reaches entry *)
  Alcotest.(check int) "nothing reaches entry" 0
    (Reaching_defs.IntSet.cardinal r.Reaching_defs.inb.(0));
  Alcotest.(check bool) "arm defs reach join" true
    (Reaching_defs.IntSet.cardinal r.Reaching_defs.inb.(3) >= 3)

(* ---- alias analysis ---- *)

let alias_accesses_of body =
  let b = Builder.program () in
  Builder.global b "ga" ~size:128 ();
  Builder.global b "gb" ~size:128 ();
  Builder.func b "main" ~nparams:0 (fun fb ->
      body fb;
      Builder.ret fb None);
  Builder.set_main b "main";
  let p = Builder.finish b in
  Validate.check_exn p;
  Alias.accesses (Prog.func_exn p "main")

let test_alias_distinct_globals () =
  let accs =
    alias_accesses_of (fun fb ->
        let open Builder in
        let a = la fb "ga" in
        let bp = la fb "gb" in
        let _ = load fb a 0 in
        store fb bp 0 (Imm 1))
  in
  match accs with
  | [ l; s ] ->
    Alcotest.(check bool) "no alias across globals" false
      (Alias.may_alias l.sym s.sym)
  | _ -> Alcotest.fail "expected two accesses"

let test_alias_same_global_same_offset () =
  let accs =
    alias_accesses_of (fun fb ->
        let open Builder in
        let a = la fb "ga" in
        let _ = load fb a 8 in
        store fb a 8 (Imm 1))
  in
  match accs with
  | [ l; s ] ->
    Alcotest.(check bool) "same location aliases" true (Alias.may_alias l.sym s.sym)
  | _ -> Alcotest.fail "expected two accesses"

let test_alias_same_global_distinct_offsets () =
  let accs =
    alias_accesses_of (fun fb ->
        let open Builder in
        let a = la fb "ga" in
        let _ = load fb a 0 in
        store fb a 8 (Imm 1))
  in
  match accs with
  | [ l; s ] ->
    Alcotest.(check bool) "provably distinct offsets" false
      (Alias.may_alias l.sym s.sym)
  | _ -> Alcotest.fail "expected two accesses"

let test_alias_variable_offset_within () =
  let accs =
    alias_accesses_of (fun fb ->
        let open Builder in
        let a = la fb "ga" in
        let i = imm fb 3 in
        let idx = mul fb (Reg i) (Imm 8) in
        let p = add fb (Reg a) (Reg idx) in
        let _ = load fb p 0 in
        store fb a 0 (Imm 1))
  in
  match accs with
  | [ l; s ] ->
    (* pointer arithmetic over a register: Within ga, may alias *)
    Alcotest.(check bool) "variable offset may alias" true
      (Alias.may_alias l.sym s.sym)
  | _ -> Alcotest.fail "expected two accesses"

let test_alias_loaded_pointer_is_any () =
  let accs =
    alias_accesses_of (fun fb ->
        let open Builder in
        let a = la fb "ga" in
        let p = load fb a 0 in
        (* p was loaded from memory: could point anywhere *)
        let _ = load fb p 0 in
        store fb a 64 (Imm 1))
  in
  match accs with
  | [ _; l2; s ] ->
    Alcotest.(check bool) "loaded pointer aliases everything" true
      (Alias.may_alias l2.sym s.sym)
  | _ -> Alcotest.fail "expected three accesses"

let test_alias_const_offset_propagation () =
  let accs =
    alias_accesses_of (fun fb ->
        let open Builder in
        let a = la fb "ga" in
        let p = add fb (Reg a) (Imm 16) in
        let _ = load fb p 0 in
        store fb a 16 (Imm 1))
  in
  match accs with
  | [ l; s ] ->
    Alcotest.(check bool) "base+16 aliases offset-16 store" true
      (Alias.may_alias l.sym s.sym);
    (match l.sym with
    | Alias.Exact ("ga", 16) -> ()
    | _ -> Alcotest.fail "expected exact resolution")
  | _ -> Alcotest.fail "expected two accesses"

(* ---- persistency-order dataflow ---- *)

(* Helpers: observe the abstract durability state immediately before one
   instruction of one block. *)
let state_before t bi k =
  let res = ref None in
  Persist_order.iter_block t bi ~f:(fun ~ii _ins ~before ~covered:_ ->
      if ii = k then res := Some before);
  match !res with
  | Some s -> s
  | None -> Alcotest.failf "no instruction (%d,%d)" bi k

let dur_of t bi k site = Persist_order.Site_map.find_opt site (state_before t bi k)

(* Straight-line: a store walks dirty -> flushed -> durable through its
   flush and the persist fence. *)
let test_persist_straightline () =
  let b = Builder.program () in
  Builder.global b "g" ~size:16 ();
  Builder.func b "main" ~nparams:0 (fun fb ->
      let open Builder in
      let p = la fb "g" in
      store fb p 0 (Imm 7);
      Builder.flush fb p 0;
      pfence fb;
      ret fb None);
  Builder.set_main b "main";
  let fn = Prog.func_exn (Builder.finish b) "main" in
  let t = Persist_order.analyze fn in
  let site = (0, 1) in
  Alcotest.(check bool) "dirty after store" true
    (dur_of t 0 2 site = Some Persist_order.Dirty);
  Alcotest.(check bool) "flushed after flush" true
    (dur_of t 0 3 site = Some Persist_order.Flushed);
  Alcotest.(check bool) "durable after pfence" true
    (Persist_order.Site_map.is_empty t.Persist_order.outb.(0));
  (* the flush reports exactly the site it upgraded *)
  let covered_sites = ref [] in
  Persist_order.iter_block t 0 ~f:(fun ~ii:_ ins ~before:_ ~covered ->
      match ins with
      | Types.Flush _ -> covered_sites := covered
      | _ -> ());
  Alcotest.(check (list (pair int int))) "flush covers the store" [ site ]
    !covered_sites;
  (* the site resolves to an exact alias class *)
  (match Persist_order.sym_at t site with
  | Alias.Exact ("g", 0) -> ()
  | s -> Alcotest.failf "expected g+0, got %s" (Persist_order.string_of_sym s))

(* Diamond: discharging on only one arm must leave the worst state
   (Dirty) at the join. *)
let test_persist_diamond_join () =
  let b = Builder.program () in
  Builder.global b "g" ~size:16 ();
  Builder.func b "main" ~nparams:0 (fun fb ->
      let open Builder in
      let p = la fb "g" in
      store fb p 0 (Imm 7);
      let c = imm fb 1 in
      let b1 = block fb in
      let b2 = block fb in
      let b3 = block fb in
      br fb c ~ifso:b1 ~ifnot:b2;
      switch_to fb b1;
      Builder.flush fb p 0;
      pfence fb;
      jmp fb b3;
      switch_to fb b2;
      jmp fb b3;
      switch_to fb b3;
      ret fb None);
  Builder.set_main b "main";
  let fn = Prog.func_exn (Builder.finish b) "main" in
  let t = Persist_order.analyze fn in
  let site = (0, 1) in
  Alcotest.(check bool) "flushed-arm exit clean" true
    (Persist_order.Site_map.is_empty t.Persist_order.outb.(1));
  Alcotest.(check bool) "other arm still dirty" true
    (Persist_order.Site_map.find_opt site t.Persist_order.outb.(2)
    = Some Persist_order.Dirty);
  Alcotest.(check bool) "join takes the worst state" true
    (Persist_order.Site_map.find_opt site t.Persist_order.inb.(3)
    = Some Persist_order.Dirty)

(* Loop: a pre-loop store discharged inside the body is clean on the
   back edge but still dirty at the header (the loop-entry path), so the
   obligation is hoistable, not loop-carried. *)
let test_persist_loop_fixpoint () =
  let b = Builder.program () in
  Builder.global b "g" ~size:16 ();
  Builder.func b "main" ~nparams:0 (fun fb ->
      let open Builder in
      let p = la fb "g" in
      store fb p 0 (Imm 7);
      let _ =
        loop fb ~from:(Types.Imm 0) ~below:(Types.Imm 4) (fun _ ->
            Builder.flush fb p 0;
            pfence fb)
      in
      ret fb None);
  Builder.set_main b "main";
  let fn = Prog.func_exn (Builder.finish b) "main" in
  let t = Persist_order.analyze fn in
  let site = (0, 1) in
  let header =
    match
      Array.to_list (Array.mapi (fun i h -> (i, h)) t.Persist_order.headers)
      |> List.find_opt snd
    with
    | Some (i, _) -> i
    | None -> Alcotest.fail "no loop header"
  in
  let preds = Cfg.predecessors fn in
  let back, entry =
    List.partition
      (fun pred -> Persist_order.is_back_edge t ~header ~pred)
      preds.(header)
  in
  Alcotest.(check int) "one back edge" 1 (List.length back);
  Alcotest.(check int) "one entry edge" 1 (List.length entry);
  (* the body's discharge makes the back-edge inflow clean... *)
  Alcotest.(check bool) "back edge clean" true
    (Persist_order.Site_map.is_empty
       t.Persist_order.outb.(List.hd back));
  (* ...but the loop-entry path has not flushed yet, so the header's
     fixpoint join keeps the obligation alive *)
  Alcotest.(check bool) "header keeps entry-path obligation" true
    (Persist_order.Site_map.find_opt site t.Persist_order.inb.(header)
    = Some Persist_order.Dirty)

(* Commit points clear every obligation: a boundary and a non-intrinsic
   call both drain the map; an intrinsic call does not. *)
let test_persist_commit_points () =
  Alcotest.(check bool) "__out is not a commit" false
    (Persist_order.commit_call "__out");
  Alcotest.(check bool) "user calls commit" true
    (Persist_order.commit_call "helper");
  let b = Builder.program () in
  Builder.global b "g" ~size:16 ();
  Builder.func b "helper" ~nparams:0 (fun fb -> Builder.ret fb None);
  Builder.func b "main" ~nparams:0 (fun fb ->
      let open Builder in
      let p = la fb "g" in
      store fb p 0 (Imm 7);
      call_void fb "helper" [];
      ret fb None);
  Builder.set_main b "main";
  let fn = Prog.func_exn (Builder.finish b) "main" in
  let t = Persist_order.analyze fn in
  Alcotest.(check bool) "call commits (clears the map)" true
    (Persist_order.Site_map.is_empty t.Persist_order.outb.(0))

(* ---- pinned answers of the address analyses ---- *)

let sym_str = function
  | Alias.Exact (g, o) -> Printf.sprintf "%s+%d" g o
  | Alias.Within g -> g ^ "+?"
  | Alias.Any -> "*"

let av_str = function
  | Tid_affine.Bot -> "_"
  | Tid_affine.Top -> "T"
  | Tid_affine.V { base; k; lo; hi } ->
    Printf.sprintf "%s%+d*t[%d,%d]"
      (match base with
      | Tid_affine.Bnum -> "#"
      | Tid_affine.Bglob g -> g
      | Tid_affine.Bparam p -> Printf.sprintf "p%d" p)
      k lo hi

let rule_str = function
  | Race.Rdata_race -> "data-race"
  | Race.Runlocked_shared_write -> "unlocked"
  | Race.Rtid_overlap_unprovable -> "tid-overlap"
  | Race.Rredundant_atomic -> "redundant-atomic"

(* One program's four answers, appended to [b]: every function's alias
   accesses and persist sites, its tid-affine block entry states with no
   tid parameter and with parameter 0, and the race findings of its SPMD
   worker. An analysis that raises is recorded by its exception. *)
let dump_analyses b (p : Prog.t) =
  let guard name f =
    try f () with e -> Printf.bprintf b "%s raised %s\n" name (Printexc.to_string e)
  in
  List.iter
    (fun (name, fn) ->
      Printf.bprintf b "func %s\n" name;
      guard "accesses" (fun () ->
          List.iter
            (fun (a : Alias.access) ->
              Printf.bprintf b "a %d,%d %b%b %s\n" a.a_bi a.a_ii a.reads a.writes
                (sym_str a.sym))
            (Alias.accesses fn));
      guard "mem_sites" (fun () ->
          List.iter
            (fun ((bi, ii), k, sym) ->
              Printf.bprintf b "m %d,%d %s %s\n" bi ii
                (match k with
                | Alias.Sk_store -> "st"
                | Alias.Sk_flush -> "fl"
                | Alias.Sk_atomic -> "at")
                (sym_str sym))
            (Alias.mem_sites fn));
      List.iter
        (fun tid_param ->
          guard "tid_affine" (fun () ->
              let states, reachable = Tid_affine.block_entry_states ?tid_param fn in
              Array.iteri
                (fun bi st ->
                  Printf.bprintf b "t %d %b:" bi reachable.(bi);
                  Array.iter (fun v -> Printf.bprintf b " %s" (av_str v)) st;
                  Buffer.add_char b '\n')
                states))
        [ None; Some 0 ])
    p.funcs;
  match Race.spmd_entry p with
  | None -> ()
  | Some worker ->
    guard "race" (fun () ->
        List.iter
          (fun (f : Race.finding) ->
            Printf.bprintf b "r %s %d,%d %s\n" (rule_str f.f_rule) f.f_bi f.f_ii
              f.f_msg)
          (Race.check p ~worker))

(* A worker whose loads, atomics and calls overwrite their own base or
   argument register: a walk must resolve each address from the state
   before the instruction, which no generated program exercises. *)
let self_based_prog () =
  let open Builder in
  let b = program () in
  global b "g" ~size:64 ();
  func b "touch" ~nparams:1 (fun fb ->
      store fb (param fb 0) 0 (Imm 1);
      ret fb (Some (Reg (param fb 0))));
  func b "worker" ~nparams:1 (fun fb ->
      let base () = la fb "g" in
      let p = base () in
      emit fb (Types.Load (p, p, 8));
      let q = base () in
      emit fb (Types.Atomic_rmw (Types.Add, q, q, 16, Imm 1));
      let r = base () in
      emit fb (Types.Cas (r, r, 24, Imm 0, Imm 1));
      let c = base () in
      emit fb (Types.Call ("touch", [ Reg c ], Some c));
      let s = base () in
      List.iter (fun off -> store fb s off (Imm 2)) [ 0; 8; 16; 24 ];
      ret fb None);
  func b "main" ~nparams:0 (fun fb ->
      call_void fb "worker" [ Imm 0 ];
      ret fb None);
  set_main b "main";
  finish b

(* The corpus: every registry workload and every parallel workload (at 1
   and 4 threads) under the five compile configs, then generated,
   generated-SPMD and mutated programs, and [self_based_prog]. *)
let analysis_corpus () =
  let module Pipeline = Cwsp_compiler.Pipeline in
  let module Gen = Cwsp_fuzz.Gen in
  let configs =
    Pipeline.
      [ baseline; regions_only; cwsp_no_prune; cwsp; cwsp_explicit ]
  in
  let compiled label prog =
    List.map
      (fun config ->
        ( label ^ "/" ^ Pipeline.config_name config,
          (Pipeline.compile ~config prog).Pipeline.prog ))
      configs
  in
  let rng = Cwsp_util.Rng.create 0xa11a5 in
  let mutated stack =
    let seed_prog s =
      if stack mod 2 = 0 then Gen.gen_program s else fst (Gen.gen_spmd_program s)
    in
    let donor = seed_prog (3000 + stack) in
    let prog = ref (seed_prog (4000 + (stack mod 50))) in
    for _ = 1 to 1 + (stack mod 4) do
      match Cwsp_fuzz.Mutate.mutate rng ~donor !prog with
      | Some (_, p) -> prog := p
      | None -> ()
    done;
    (Printf.sprintf "mutant %d" stack, !prog)
  in
  List.concat_map
    (fun (w : Cwsp_workloads.Defs.t) -> compiled w.name (w.build ~scale:1))
    Cwsp_workloads.Registry.all
  @ List.concat_map
      (fun (w : Cwsp_workloads.W_parallel.t) ->
        List.concat_map
          (fun threads ->
            compiled
              (Printf.sprintf "%s@%d" w.pname threads)
              (w.pbuild ~scale:1 ~threads))
          [ 1; 4 ])
      Cwsp_workloads.W_parallel.all
  @ List.init 120 (fun i -> (Printf.sprintf "gen %d" i, Gen.gen_program (i + 1)))
  @ List.init 60 (fun i ->
        (Printf.sprintf "spmd %d" i, fst (Gen.gen_spmd_program (i + 1))))
  @ List.init 200 (fun stack -> mutated (stack + 1))
  @ [ ("self-based", self_based_prog ()) ]

(* Byte-identity pin for the address analyses: a refactor of their
   fixpoint or of the block walks over their states must leave every
   answer over the corpus unchanged. *)
let test_analyses_pinned () =
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun (label, p) ->
      Printf.bprintf b "== %s\n" label;
      dump_analyses b p)
    (analysis_corpus ());
  Alcotest.(check string) "analysis answers digest"
    "ae1f880b2a5df19ad98505ecff300a4d"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let () =
  Alcotest.run "analysis"
    [
      ( "cfg",
        [
          Alcotest.test_case "predecessors" `Quick test_predecessors;
          Alcotest.test_case "rpo" `Quick test_rpo_starts_at_entry;
          Alcotest.test_case "loop headers" `Quick test_loop_headers;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "straightline" `Quick test_liveness_straightline;
          Alcotest.test_case "across branch" `Quick test_liveness_across_branch;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "forward reach" `Quick test_dataflow_forward_reach;
          Alcotest.test_case "unreachable stays bottom" `Quick
            test_dataflow_skips_unreachable;
          Alcotest.test_case "divergence raises" `Quick
            test_dataflow_divergence_raises;
          Alcotest.test_case "reaching defs diamond" `Quick
            test_reaching_defs_diamond;
        ] );
      ( "alias",
        [
          Alcotest.test_case "distinct globals" `Quick test_alias_distinct_globals;
          Alcotest.test_case "same global same offset" `Quick test_alias_same_global_same_offset;
          Alcotest.test_case "distinct offsets" `Quick test_alias_same_global_distinct_offsets;
          Alcotest.test_case "variable offset" `Quick test_alias_variable_offset_within;
          Alcotest.test_case "loaded pointer" `Quick test_alias_loaded_pointer_is_any;
          Alcotest.test_case "const offset propagation" `Quick test_alias_const_offset_propagation;
        ] );
      ( "persist-order",
        [
          Alcotest.test_case "straight-line lattice walk" `Quick
            test_persist_straightline;
          Alcotest.test_case "diamond join" `Quick test_persist_diamond_join;
          Alcotest.test_case "loop fixpoint" `Quick test_persist_loop_fixpoint;
          Alcotest.test_case "commit points" `Quick test_persist_commit_points;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "alias, tid-affine and race answers" `Slow
            test_analyses_pinned;
        ] );
    ]
