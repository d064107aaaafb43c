(** Functional interpreter for IR programs.

    The machine is an explicit-state stepper so that higher layers can do
    more than run-to-completion: the recovery harness ([Cwsp_recovery])
    snapshots frames at region boundaries, logs store old-values, stops at
    arbitrary instruction counts and resumes — exactly what is needed to
    emulate power failure and validate the paper's recovery protocol. *)

open Cwsp_ir

(* The decoded fast path ([Cwsp_ir.Decode]) raises the very same
   exception constructors, so callers and the differential oracle see
   identical failures from either engine. *)
exception Fuel_exhausted = Decode.Fuel_exhausted
exception Trap = Decode.Trap

(* ---- linking ---- *)

type lfunc = {
  lf_name : string;
  findex : int;
  nregs : int;
  nparams : int;
  code : Types.instr array array; (* per block *)
  terms : Types.term array;
}

type linked = {
  source : Prog.t;
  lfuncs : lfunc array;
  fidx : (string, int) Hashtbl.t;
  global_addr : (string, int) Hashtbl.t;
  main_idx : int;
}

(** Name of the output intrinsic: [call __out(v)] appends [v] to the
    machine's observable output vector. Used by tests to compare golden
    and post-recovery executions. *)
let out_intrinsic = Decode.out_intrinsic

let link (p : Prog.t) : linked =
  let fidx = Hashtbl.create 16 in
  List.iteri (fun i (name, _) -> Hashtbl.replace fidx name i) p.funcs;
  let lfuncs =
    Array.of_list
      (List.mapi
         (fun i (_, (f : Prog.func)) ->
           {
             lf_name = f.name;
             findex = i;
             nregs = f.nregs;
             nparams = f.nparams;
             code = Array.map (fun (b : Prog.block) -> Array.of_list b.instrs) f.blocks;
             terms = Array.map (fun (b : Prog.block) -> b.term) f.blocks;
           })
         p.funcs)
  in
  let global_addr = Hashtbl.create 16 in
  let next = ref Layout.global_base in
  List.iter
    (fun (g : Prog.global) ->
      Hashtbl.replace global_addr g.gname !next;
      let aligned = (g.size + Layout.cache_line - 1) / Layout.cache_line * Layout.cache_line in
      next := !next + aligned)
    p.globals;
  let main_idx =
    match Hashtbl.find_opt fidx p.main with
    | Some i -> i
    | None -> invalid_arg "Machine.link: missing main"
  in
  { source = p; lfuncs; fidx; global_addr; main_idx }

(* ---- machine state ---- *)

type frame = {
  lf : lfunc;
  regs : int array;
  mutable blk : int;
  mutable idx : int;
  ret_to : Types.reg option; (* caller register receiving the return value *)
}

type status = Running | Halted

type t = {
  linked : linked;
  mem : Memory.t;
  mutable frames : frame list; (* head = current frame *)
  mutable status : status;
  mutable steps : int;
  mutable outputs : int list; (* reversed observable output *)
  mutable depth : int;        (* call-stack depth, for checkpoint slots *)
  tid : int;
}

let create ?(tid = 0) linked =
  let mem = Memory.create () in
  List.iter
    (fun (g : Prog.global) ->
      let base = Hashtbl.find linked.global_addr g.gname in
      List.iter (fun (w, v) -> Memory.write mem (base + (w * 8)) v) g.init)
    linked.source.globals;
  let mf = linked.lfuncs.(linked.main_idx) in
  if mf.nparams <> 0 then invalid_arg "Machine.create: main must take no params";
  {
    linked;
    mem;
    frames = [ { lf = mf; regs = Array.make (max 1 mf.nregs) 0; blk = 0; idx = 0; ret_to = None } ];
    status = Running;
    steps = 0;
    outputs = [];
    depth = 0;
    tid;
  }

let outputs t = List.rev t.outputs
let steps t = t.steps

(** Resume a machine on an existing (post-recovery) memory image from
    the call stack [frames] (head = current frame, positioned just after
    a region boundary or at a snapshot). Used by the recovery harness;
    global initializers are NOT re-applied — the memory image is the
    surviving NVM state. *)
let resume ?(tid = 0) linked ~mem ~frames ~depth =
  {
    linked;
    mem;
    frames;
    status = (if frames = [] then Halted else Running);
    steps = 0;
    outputs = [];
    depth;
    tid;
  }

(** Hooks invoked during stepping. [on_event] receives the packed commit
    event ([Event]); [on_store] receives every memory write with the old
    value, which is what undo logging consumes. *)
type hooks = {
  on_event : int -> unit;
  on_store : addr:int -> old:int -> value:int -> unit;
}

let no_hooks = { on_event = ignore; on_store = (fun ~addr:_ ~old:_ ~value:_ -> ()) }

let current_frame t =
  match t.frames with
  | f :: _ -> f
  | [] -> raise (Trap "no frame")

let operand_value regs (op : Types.operand) =
  match op with Reg r -> regs.(r) | Imm v -> v

let mem_write t hooks addr value =
  let old = Memory.read t.mem addr in
  Memory.write t.mem addr value;
  hooks.on_store ~addr ~old ~value

(** Execute one instruction (or one terminator if the block is done).
    Raises [Trap] on dynamic errors. No-op once [status = Halted]. *)
let step t hooks =
  match t.status with
  | Halted -> ()
  | Running ->
    let fr = current_frame t in
    let code = fr.lf.code.(fr.blk) in
    t.steps <- t.steps + 1;
    if fr.idx < Array.length code then begin
      let ins = code.(fr.idx) in
      fr.idx <- fr.idx + 1;
      let regs = fr.regs in
      match ins with
      | Types.Bin (op, dst, a, b) ->
        regs.(dst) <- Eval.binop op (operand_value regs a) (operand_value regs b);
        hooks.on_event (Event.encode Alu ~payload:0)
      | Types.Cmp (op, dst, a, b) ->
        regs.(dst) <- Eval.cmpop op (operand_value regs a) (operand_value regs b);
        hooks.on_event (Event.encode Alu ~payload:0)
      | Types.Mov (dst, src) ->
        regs.(dst) <- operand_value regs src;
        hooks.on_event (Event.encode Alu ~payload:0)
      | Types.La (dst, sym) ->
        (match Hashtbl.find_opt t.linked.global_addr sym with
        | Some a -> regs.(dst) <- a
        | None -> raise (Trap ("unknown global " ^ sym)));
        hooks.on_event (Event.encode Alu ~payload:0)
      | Types.Load (dst, base, off) ->
        let addr = regs.(base) + off in
        regs.(dst) <- Memory.read t.mem addr;
        hooks.on_event (Event.encode Load ~payload:addr)
      | Types.Store (base, off, src) ->
        let addr = regs.(base) + off in
        mem_write t hooks addr (operand_value regs src);
        hooks.on_event (Event.encode Store ~payload:addr)
      | Types.Atomic_rmw (op, dst, base, off, src) ->
        let addr = regs.(base) + off in
        let old = Memory.read t.mem addr in
        regs.(dst) <- old;
        mem_write t hooks addr (Eval.binop op old (operand_value regs src));
        hooks.on_event (Event.encode Atomic ~payload:addr)
      | Types.Cas (dst, base, off, expected, desired) ->
        let addr = regs.(base) + off in
        let old = Memory.read t.mem addr in
        regs.(dst) <- old;
        if old = operand_value regs expected then
          mem_write t hooks addr (operand_value regs desired);
        hooks.on_event (Event.encode Atomic ~payload:addr)
      | Types.Fence -> hooks.on_event (Event.encode Fence ~payload:0)
      | Types.Flush (base, off) ->
        (* no architectural effect: a line writeback only moves data down
           the persist path, which the timing/recovery layers model *)
        hooks.on_event (Event.encode Flush ~payload:(regs.(base) + off))
      | Types.Pfence -> hooks.on_event (Event.encode Pfence ~payload:0)
      | Types.Ckpt r ->
        let slot = Layout.ckpt_slot ~tid:t.tid ~depth:t.depth r in
        mem_write t hooks slot regs.(r);
        hooks.on_event (Event.encode Ckpt ~payload:slot)
      | Types.Boundary id -> hooks.on_event (Event.encode Boundary ~payload:id)
      | Types.Call (callee, args, ret_to) ->
        if callee = out_intrinsic then begin
          (match args with
          | [ a ] -> t.outputs <- operand_value regs a :: t.outputs
          | _ -> raise (Trap "__out takes exactly one argument"));
          hooks.on_event (Event.encode Alu ~payload:0)
        end
        else begin
          match Hashtbl.find_opt t.linked.fidx callee with
          | None -> raise (Trap ("unknown function " ^ callee))
          | Some fi ->
            let lf = t.linked.lfuncs.(fi) in
            let nregs = max 1 lf.nregs in
            let nregs = max nregs lf.nparams in
            let callee_regs = Array.make nregs 0 in
            List.iteri (fun i a -> callee_regs.(i) <- operand_value regs a) args;
            t.frames <-
              { lf; regs = callee_regs; blk = 0; idx = 0; ret_to } :: t.frames;
            t.depth <- t.depth + 1;
            if t.depth >= Layout.max_frames then
              raise (Trap "call stack deeper than the checkpoint area");
            hooks.on_event (Event.encode Alu ~payload:0)
        end
    end
    else begin
      (* terminator *)
      let regs = fr.regs in
      match fr.lf.terms.(fr.blk) with
      | Types.Jmp l ->
        fr.blk <- l;
        fr.idx <- 0;
        hooks.on_event (Event.encode Alu ~payload:0)
      | Types.Br (c, ifso, ifnot) ->
        fr.blk <- (if regs.(c) <> 0 then ifso else ifnot);
        fr.idx <- 0;
        hooks.on_event (Event.encode Alu ~payload:0)
      | Types.Ret op ->
        let value = match op with Some o -> operand_value regs o | None -> 0 in
        (match t.frames with
        | [ _ ] ->
          t.frames <- [];
          t.status <- Halted
        | _ :: (caller :: _ as rest) ->
          (match fr.ret_to with
          | Some dst -> caller.regs.(dst) <- value
          | None -> ());
          t.frames <- rest;
          t.depth <- t.depth - 1
        | [] -> raise (Trap "ret with no frame"));
        hooks.on_event (Event.encode Alu ~payload:0)
    end

(** Run until halt or until [fuel] steps have been executed.
    Raises [Fuel_exhausted] if the budget runs out first. *)
let run ?(fuel = 50_000_000) t hooks =
  let limit = t.steps + fuel in
  while t.status = Running do
    if t.steps >= limit then raise Fuel_exhausted;
    step t hooks
  done

(** Convenience: link, run to completion, return (machine, trace). *)
let trace_of_program ?fuel (p : Prog.t) =
  let m = create (link p) in
  let tr = Trace.create () in
  let hooks = { no_hooks with on_event = Trace.push tr } in
  run ?fuel m hooks;
  (m, tr)

(** Run functionally with no trace; returns the machine (memory + outputs). *)
let run_functional ?fuel (p : Prog.t) =
  let m = create (link p) in
  run ?fuel m no_hooks;
  m
