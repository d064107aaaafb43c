(** The block-level fixpoint engines — see the interface for the
    contract. The worklist engine is direction-agnostic: it works over an
    abstract edge relation ([flow_preds] feeding each node, [flow_succs]
    to requeue) which is the CFG for forward problems and the reversed
    CFG for backward ones. *)

open Cwsp_ir

module type DOMAIN = sig
  type t

  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t
end

module type PROBLEM = sig
  module D : DOMAIN

  type ctx

  val direction : [ `Forward | `Backward ]
  val boundary : ctx -> Prog.func -> D.t
  val transfer : ctx -> Prog.func -> int -> D.t -> D.t
end

module Make (P : PROBLEM) = struct
  type result = { inb : P.D.t array; outb : P.D.t array }

  let solve (ctx : P.ctx) (fn : Prog.func) : result =
    let n = Array.length fn.blocks in
    let preds = Cfg.predecessors fn in
    let succs = Array.init n (Cfg.successors fn) in
    (* [flow_preds.(b)] are the blocks whose post-transfer state feeds
       [b]; [flow_succs.(b)] the blocks to requeue when [b]'s
       post-transfer state changes. *)
    let flow_preds, flow_succs, order =
      match P.direction with
      | `Forward -> (preds, succs, Cfg.reverse_postorder fn)
      | `Backward -> (succs, preds, List.rev (Cfg.reverse_postorder fn))
    in
    (* [pre.(b)]: state flowing into the transfer of [b] (block-entry
       state forward, block-exit state backward). [post.(b)]: its
       image under the transfer. *)
    let pre = Array.make n P.D.bottom in
    let post = Array.make n P.D.bottom in
    let boundary = P.boundary ctx fn in
    let is_flow_source bi =
      match P.direction with
      | `Forward -> bi = 0
      | `Backward -> succs.(bi) = []
    in
    (* Only blocks reachable from the entry participate; everything else
       keeps [bottom], matching the historical per-analysis solvers. *)
    let eligible = Array.make n false in
    List.iter (fun bi -> eligible.(bi) <- true) order;
    let on_list = Array.make n false in
    let work = Queue.create () in
    let enqueue bi =
      if eligible.(bi) && not on_list.(bi) then begin
        on_list.(bi) <- true;
        Queue.add bi work
      end
    in
    List.iter enqueue order;
    (* The pop cap is a divergence guard, not a complexity bound: real
       domains converge in a handful of sweeps, so the cap only needs to
       be large enough that no legitimate chain of component flips (which
       scales with blocks x domain components, not blocks alone) can
       exhaust it. *)
    let budget = ref (4_194_304 + (n * n)) in
    let pops = Array.make n 0 in
    while not (Queue.is_empty work) do
      if !budget <= 0 then begin
        let hot = ref 0 in
        Array.iteri (fun i c -> if c > pops.(!hot) then hot := i) pops;
        failwith
          (Printf.sprintf
             "Dataflow.solve: fixpoint did not converge (bad domain join?): \
              %d blocks, hottest block %d popped %d times"
             n !hot pops.(!hot))
      end;
      decr budget;
      let bi = Queue.pop work in
      pops.(bi) <- pops.(bi) + 1;
      on_list.(bi) <- false;
      let inflow =
        List.fold_left
          (fun acc p -> P.D.join acc post.(p))
          (if is_flow_source bi then boundary else P.D.bottom)
          flow_preds.(bi)
      in
      pre.(bi) <- inflow;
      let out = P.transfer ctx fn bi inflow in
      if not (P.D.equal out post.(bi)) then begin
        post.(bi) <- out;
        List.iter enqueue flow_succs.(bi)
      end
    done;
    match P.direction with
    | `Forward -> { inb = pre; outb = post }
    | `Backward -> { inb = post; outb = pre }
end

type 'a registers = {
  bottom : 'a;
  equal : 'a -> 'a -> bool;
  join : widen:bool -> 'a -> 'a -> 'a;
  step : 'a array -> Types.instr -> unit;
}

(* An entry widens once it has changed this many times. *)
let widen_delay = 3

let register_states d ~entry (fn : Prog.func) =
  let n = Array.length fn.blocks and nregs = Array.length entry in
  let states =
    Array.init n (fun i -> if i = 0 then entry else Array.make nregs d.bottom)
  in
  let updates = Array.make n 0 in
  let rpo = Cfg.reverse_postorder fn in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun bi ->
        let state = Array.copy states.(bi) in
        List.iter (d.step state) fn.blocks.(bi).instrs;
        List.iter
          (fun s ->
            let old = states.(s) in
            let widen = updates.(s) >= widen_delay in
            let join r = d.join ~widen old.(r) state.(r) in
            (* Copy the entry only if a join moves it; the registers
               before the first moved one keep their equal old values. *)
            let r = ref 0 in
            while !r < nregs && d.equal (join !r) old.(!r) do
              incr r
            done;
            if !r < nregs then begin
              let merged = Array.copy old in
              for r = !r to nregs - 1 do
                merged.(r) <- join r
              done;
              states.(s) <- merged;
              updates.(s) <- updates.(s) + 1;
              changed := true
            end)
          (Cfg.successors fn bi))
      rpo
  done;
  (states, Cfg.reachable fn)

let walk_block step entry (blk : Prog.block) f =
  let state = Array.copy entry in
  List.iteri
    (fun ii ins ->
      f ii ins state;
      step state ins)
    blk.instrs
