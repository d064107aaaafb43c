(** The decoded execution core: a one-shot pre-decoder that lowers a
    validated [Prog.t] into flat, closure-compiled code.

    [Machine] (lib/interp) is the *reference* semantics: an explicit-state
    stepper whose frames the recovery/fault harnesses snapshot and resume.
    This module is the *fast path* the benchmark harness runs: every name
    is resolved once at decode time — call targets and the [__out]
    intrinsic to function indices, globals to absolute addresses,
    checkpoint slots to a per-thread base plus a depth displacement — so
    the hot loop never touches a string or a [Hashtbl]. Each function's
    blocks are flattened into a single [op array]; an [op] is a closure
    [st -> int] that executes one reference-machine step (one instruction
    or one terminator) and returns the next flat pc, so dispatch is one
    array load and one indirect call (threaded dispatch, after the zwasm
    playbook).

    Commit events are appended to a local int buffer with an inlined
    bounds check (no per-event closure call, no [Event.t] allocation —
    events stay packed ints, PR 6's 4-bit tag encoding) and surface as an
    ordinary [Trace.t]. An untraced state keeps the same closures: its
    buffer is a small ring that wraps, decided only when the buffer is
    full, so the traced path pays nothing for the mode.

    [resume] starts a state from a reference-machine call stack (function
    index, block, instruction index, registers and return register per
    frame): each function keeps its block start offsets, so a frame's
    position is one flat pc.

    Decode invariants (asserted by the differential oracle,
    [Cwsp_interp.Oracle], and test/test_decode.ml):
    - outputs, the packed event stream, and the final memory image are
      bit-identical to the reference [Machine] run;
    - traps ([Trap], [Fuel_exhausted]) are raised under exactly the same
      conditions, with the same messages, at the same step counts;
    - SPMD runs replicate [Multi]'s round-robin quantum schedule, so
      per-thread traces are bit-identical too.

    Dynamic-error closures are still compiled (not raised at decode time):
    an unknown callee or global traps only if the instruction executes,
    exactly like the reference interpreter. *)

exception Trap of string
exception Fuel_exhausted

(** Name of the output intrinsic (see [Machine.out_intrinsic], which
    aliases this): [call __out(v)] appends [v] to the observable output
    vector. *)
let out_intrinsic = "__out"

type st = {
  mem : Memory.t;
  mutable regs : int array; (* current frame's registers *)
  mutable ops : op array;   (* current function's flat code *)
  mutable pc : int;         (* suspension point between quanta *)
  (* call stack as parallel arrays (depth-indexed, [Layout.max_frames]) *)
  stack_ops : op array array;
  stack_regs : int array array;
  stack_pc : int array;
  stack_ret : int array; (* caller register receiving the return, or -1 *)
  mutable depth : int;
  tid : int;
  mutable steps : int;
  mutable halted : bool;
  mutable outputs : int list; (* reversed observable output *)
  (* unboxed event stream: packed commit events, [Event] encoding. A
     traced state grows it; an untraced one wraps it, unread *)
  mutable ev : int array;
  mutable evlen : int;
  traced : bool;
}

and op = st -> int

type dfunc = {
  d_name : string;
  d_nregs : int;   (* register-file size: max 1 nregs, >= nparams *)
  d_nparams : int;
  d_start : int array; (* block [b]'s first flat pc; last entry = code size *)
  mutable d_ops : op array; (* filled in pass 2 (callees may be forward) *)
}

type t = {
  source : Prog.t;
  dfuncs : dfunc array;
  fidx : (string, int) Hashtbl.t;
  global_addr : (string, int) Hashtbl.t;
  main_idx : int;
}

(* ---- event buffer ---- *)

(* The buffer is full at [n]: a traced state doubles it and appends at
   [n]; an untraced one wraps its ring to slot 0. *)
let full st n =
  if st.traced then begin
    let bigger = Array.make (2 * n) 0 in
    Array.blit st.ev 0 bigger 0 n;
    st.ev <- bigger;
    n
  end
  else 0

let emit st e =
  let n = st.evlen in
  let n = if n = Array.length st.ev then full st n else n in
  Array.unsafe_set st.ev n e;
  st.evlen <- n + 1

(* pre-encoded constant events (Event.encode kind ~payload:0) *)
let ev_alu = 0 (* tag_alu = 0, payload 0 *)
let ev_fence = Event.tag_fence
let ev_pfence = Event.tag_pfence

(* ---- decoding ---- *)

(* Operand shapes are split at decode time; the generic accessors below
   only run inside the rare closures that keep an operand list (calls). *)
let operand_code = function Types.Reg r -> r | Types.Imm _ -> -1
let operand_imm = function Types.Reg _ -> 0 | Types.Imm v -> v

(* flat pc layout: block [b] occupies [start.(b) .. start.(b+1)-1], its
   instructions first, its terminator last *)
let block_starts (f : Prog.func) =
  let nblocks = Array.length f.blocks in
  let start = Array.make (nblocks + 1) 0 in
  for b = 0 to nblocks - 1 do
    start.(b + 1) <- start.(b) + List.length f.blocks.(b).instrs + 1
  done;
  start

let compile_func ?screen (d : t) (df : dfunc) (f : Prog.func) : op array =
  let start = df.d_start in
  let ops = Array.make start.(Array.length f.blocks) (fun (_ : st) -> 0) in
  let compile_instr pc (ins : Types.instr) : op =
    let next = pc + 1 in
    match ins with
    | Bin (op, dst, a, b) -> (
      match (a, b) with
      | Reg ra, Reg rb ->
        fun st ->
          let r = st.regs in
          r.(dst) <- Eval.binop op r.(ra) r.(rb);
          emit st ev_alu;
          next
      | Reg ra, Imm vb ->
        fun st ->
          let r = st.regs in
          r.(dst) <- Eval.binop op r.(ra) vb;
          emit st ev_alu;
          next
      | Imm va, Reg rb ->
        fun st ->
          let r = st.regs in
          r.(dst) <- Eval.binop op va r.(rb);
          emit st ev_alu;
          next
      | Imm va, Imm vb ->
        let v = Eval.binop op va vb in
        fun st ->
          st.regs.(dst) <- v;
          emit st ev_alu;
          next)
    | Cmp (op, dst, a, b) -> (
      match (a, b) with
      | Reg ra, Reg rb ->
        fun st ->
          let r = st.regs in
          r.(dst) <- Eval.cmpop op r.(ra) r.(rb);
          emit st ev_alu;
          next
      | Reg ra, Imm vb ->
        fun st ->
          let r = st.regs in
          r.(dst) <- Eval.cmpop op r.(ra) vb;
          emit st ev_alu;
          next
      | Imm va, Reg rb ->
        fun st ->
          let r = st.regs in
          r.(dst) <- Eval.cmpop op va r.(rb);
          emit st ev_alu;
          next
      | Imm va, Imm vb ->
        let v = Eval.cmpop op va vb in
        fun st ->
          st.regs.(dst) <- v;
          emit st ev_alu;
          next)
    | Mov (dst, Reg src) ->
      fun st ->
        let r = st.regs in
        r.(dst) <- r.(src);
        emit st ev_alu;
        next
    | Mov (dst, Imm v) ->
      fun st ->
        st.regs.(dst) <- v;
        emit st ev_alu;
        next
    | La (dst, sym) -> (
      match Hashtbl.find_opt d.global_addr sym with
      | Some a ->
        fun st ->
          st.regs.(dst) <- a;
          emit st ev_alu;
          next
      | None -> fun _ -> raise (Trap ("unknown global " ^ sym)))
    | Load (dst, base, off) ->
      fun st ->
        let addr = st.regs.(base) + off in
        st.regs.(dst) <- Memory.read st.mem addr;
        emit st ((addr lsl 4) lor Event.tag_load);
        next
    | Store (base, off, src) -> (
      match src with
      | Reg rs ->
        fun st ->
          let r = st.regs in
          let addr = r.(base) + off in
          Memory.write st.mem addr r.(rs);
          emit st ((addr lsl 4) lor Event.tag_store);
          next
      | Imm v ->
        fun st ->
          let addr = st.regs.(base) + off in
          Memory.write st.mem addr v;
          emit st ((addr lsl 4) lor Event.tag_store);
          next)
    | Atomic_rmw (op, dst, base, off, src) ->
      let sc = operand_code src and si = operand_imm src in
      fun st ->
        let r = st.regs in
        let addr = r.(base) + off in
        let old = Memory.read st.mem addr in
        r.(dst) <- old;
        let v = if sc >= 0 then r.(sc) else si in
        Memory.write st.mem addr (Eval.binop op old v);
        emit st ((addr lsl 4) lor Event.tag_atomic);
        next
    | Cas (dst, base, off, expected, desired) ->
      let ec = operand_code expected and ei = operand_imm expected in
      let dc = operand_code desired and di = operand_imm desired in
      fun st ->
        let r = st.regs in
        let addr = r.(base) + off in
        let old = Memory.read st.mem addr in
        r.(dst) <- old;
        if old = (if ec >= 0 then r.(ec) else ei) then
          Memory.write st.mem addr (if dc >= 0 then r.(dc) else di);
        emit st ((addr lsl 4) lor Event.tag_atomic);
        next
    | Fence ->
      fun st ->
        emit st ev_fence;
        next
    | Flush (base, off) ->
      fun st ->
        emit st (((st.regs.(base) + off) lsl 4) lor Event.tag_flush);
        next
    | Pfence ->
      fun st ->
        emit st ev_pfence;
        next
    | Ckpt r when r >= Layout.ckpt_slots_per_frame ->
      (* no slot: fails as the reference's [Layout.ckpt_slot] does, when
         it executes, not when it is decoded *)
      fun st ->
        ignore (Layout.ckpt_slot ~tid:st.tid ~depth:st.depth r);
        next
    | Ckpt r ->
      (* slot = ckpt_base + (((tid*F + depth land (F-1)) * S + r) * 8):
         everything but the depth term is fixed at decode time *)
      let frame_bytes = Layout.ckpt_slots_per_frame * Layout.word in
      let dmask = Layout.max_frames - 1 in
      fun st ->
        let base0 =
          Layout.ckpt_base
          + ((st.tid * Layout.max_frames * Layout.ckpt_slots_per_frame) + r)
            * Layout.word
        in
        let slot = base0 + ((st.depth land dmask) * frame_bytes) in
        Memory.write st.mem slot st.regs.(r);
        emit st ((slot lsl 4) lor Event.tag_ckpt);
        next
    | Boundary id ->
      let e = (id lsl 4) lor Event.tag_boundary in
      fun st ->
        emit st e;
        next
    | Call (callee, args, ret_to) ->
      if callee = out_intrinsic then (
        match args with
        | [ Reg ra ] ->
          fun st ->
            st.outputs <- st.regs.(ra) :: st.outputs;
            emit st ev_alu;
            next
        | [ Imm v ] ->
          fun st ->
            st.outputs <- v :: st.outputs;
            emit st ev_alu;
            next
        | _ -> fun _ -> raise (Trap "__out takes exactly one argument"))
      else (
        match Hashtbl.find_opt d.fidx callee with
        | None -> fun _ -> raise (Trap ("unknown function " ^ callee))
        | Some fi ->
          let lf = d.dfuncs.(fi) in
          let nregs = lf.d_nregs in
          let nargs = List.length args in
          let acode = Array.of_list (List.map operand_code args) in
          let aimm = Array.of_list (List.map operand_imm args) in
          let ret = match ret_to with Some r -> r | None -> -1 in
          fun st ->
            let regs = st.regs in
            let cregs = Array.make nregs 0 in
            for i = 0 to nargs - 1 do
              let c = acode.(i) in
              cregs.(i) <- (if c >= 0 then regs.(c) else aimm.(i))
            done;
            let dpt = st.depth in
            st.stack_ops.(dpt) <- st.ops;
            st.stack_regs.(dpt) <- regs;
            st.stack_pc.(dpt) <- next;
            st.stack_ret.(dpt) <- ret;
            st.depth <- dpt + 1;
            if st.depth >= Layout.max_frames then
              raise (Trap "call stack deeper than the checkpoint area");
            st.ops <- lf.d_ops;
            st.regs <- cregs;
            emit st ev_alu;
            0)
  in
  let compile_term (term : Types.term) : op =
    match term with
    | Jmp l ->
      let target = start.(l) in
      fun st ->
        emit st ev_alu;
        target
    | Br (c, ifso, ifnot) ->
      let so = start.(ifso) and no = start.(ifnot) in
      fun st ->
        emit st ev_alu;
        if st.regs.(c) <> 0 then so else no
    | Ret op ->
      let rc, ri =
        match op with
        | Some o -> (operand_code o, operand_imm o)
        | None -> (-1, 0)
      in
      fun st ->
        let v = if rc >= 0 then st.regs.(rc) else ri in
        if st.depth = 0 then begin
          st.halted <- true;
          emit st ev_alu;
          st.pc (* unused: the dispatch loop checks [halted] first *)
        end
        else begin
          let dpt = st.depth - 1 in
          st.depth <- dpt;
          let cregs = st.stack_regs.(dpt) in
          let ret = st.stack_ret.(dpt) in
          if ret >= 0 then cregs.(ret) <- v;
          st.regs <- cregs;
          st.ops <- st.stack_ops.(dpt);
          emit st ev_alu;
          st.stack_pc.(dpt)
        end
  in
  (* [screen] sees a data access's address before the access runs *)
  let screened (ins : Types.instr) (op : op) : op =
    match (screen, ins) with
    | ( Some screen,
        ( Load (_, base, off)
        | Store (base, off, _)
        | Flush (base, off)
        | Atomic_rmw (_, _, base, off, _)
        | Cas (_, base, off, _, _) ) ) ->
      fun st ->
        screen (st.regs.(base) + off);
        op st
    | _ -> op
  in
  Array.iteri
    (fun b (blk : Prog.block) ->
      let pc = ref start.(b) in
      List.iter
        (fun ins ->
          ops.(!pc) <- screened ins (compile_instr !pc ins);
          incr pc)
        blk.instrs;
      ops.(!pc) <- compile_term blk.term)
    f.blocks;
  ops

(** One-shot pre-decode of a (validated) program. Global addresses are
    assigned exactly as [Machine.link] assigns them, so memory images and
    event payloads are directly comparable. With [screen], every data
    access first calls it on its address. *)
let decode ?screen (p : Prog.t) : t =
  let fidx = Hashtbl.create 16 in
  List.iteri (fun i (name, _) -> Hashtbl.replace fidx name i) p.funcs;
  let dfuncs =
    Array.of_list
      (List.map
         (fun (_, (f : Prog.func)) ->
           {
             d_name = f.name;
             d_nregs = max (max 1 f.nregs) f.nparams;
             d_nparams = f.nparams;
             d_start = block_starts f;
             d_ops = [||];
           })
         p.funcs)
  in
  let global_addr = Hashtbl.create 16 in
  let next = ref Layout.global_base in
  List.iter
    (fun (g : Prog.global) ->
      Hashtbl.replace global_addr g.gname !next;
      let aligned =
        (g.size + Layout.cache_line - 1) / Layout.cache_line * Layout.cache_line
      in
      next := !next + aligned)
    p.globals;
  let main_idx =
    match Hashtbl.find_opt fidx p.main with
    | Some i -> i
    | None -> invalid_arg "Decode.decode: missing main"
  in
  let d = { source = p; dfuncs; fidx; global_addr; main_idx } in
  (* pass 2: compile bodies (call closures capture forward dfuncs) *)
  List.iteri
    (fun i (_, f) -> dfuncs.(i).d_ops <- compile_func ?screen d dfuncs.(i) f)
    p.funcs;
  d

(** The address [decode] gave global [g], if the program has one. *)
let global_addr (d : t) g = Hashtbl.find_opt d.global_addr g

(* ---- execution ---- *)

let init_globals (d : t) mem =
  List.iter
    (fun (g : Prog.global) ->
      let base = Hashtbl.find d.global_addr g.gname in
      List.iter (fun (w, v) -> Memory.write mem (base + (w * 8)) v) g.init)
    d.source.globals

(* An untraced state's ring: small enough to stay in the minor heap, so a
   short resumed run allocates little. *)
let ring_slots = 64

let make_st ~tid ~traced ~mem ~regs ~(ops : op array) =
  {
    mem;
    regs;
    ops;
    pc = 0;
    stack_ops = Array.make Layout.max_frames [||];
    stack_regs = Array.make Layout.max_frames [||];
    stack_pc = Array.make Layout.max_frames 0;
    stack_ret = Array.make Layout.max_frames (-1);
    depth = 0;
    tid;
    steps = 0;
    halted = false;
    outputs = [];
    ev = Array.make (if traced then 4096 else ring_slots) 0;
    evlen = 0;
    traced;
  }

(** Fresh machine on a fresh memory image, entering [main] (which must
    take no parameters), global initializers applied. *)
let create ?(tid = 0) ?(traced = true) (d : t) : st =
  let mem = Memory.create () in
  init_globals d mem;
  let mf = d.dfuncs.(d.main_idx) in
  if mf.d_nparams <> 0 then invalid_arg "Decode.create: main must take no params";
  make_st ~tid ~traced ~mem ~regs:(Array.make mf.d_nregs 0) ~ops:mf.d_ops

type frame = {
  fn : int;
  blk : int;
  idx : int;
  regs : int array;
  ret : int;
}

(** An untraced state on [mem] (global initializers NOT re-applied)
    whose call stack is [frames], head the current frame, at call depth
    [depth] (one less than the number of frames), having produced
    [outputs] (oldest first); its step count starts at 0. No frames: a
    halted state. A caller frame's position is the instruction after its
    call, as [Machine] keeps it; a frame's [ret] lands in the caller's
    register when it returns, as the call left it in the stack. *)
let resume ?(tid = 0) (d : t) ~mem ~(frames : frame list) ~depth ~outputs : st =
  let at (f : frame) =
    let df = d.dfuncs.(f.fn) in
    (df.d_ops, df.d_start.(f.blk) + f.idx)
  in
  match frames with
  | [] ->
    let st = make_st ~tid ~traced:false ~mem ~regs:[||] ~ops:[||] in
    st.halted <- true;
    st.outputs <- List.rev outputs;
    st
  | top :: callers ->
    if depth <> List.length callers || depth >= Layout.max_frames then
      invalid_arg "Decode.resume: depth must be the number of caller frames";
    let ops, pc = at top in
    let st = make_st ~tid ~traced:false ~mem ~regs:top.regs ~ops in
    st.pc <- pc;
    st.depth <- depth;
    st.outputs <- List.rev outputs;
    (* frame [i] (0 = top) sits at depth [depth - i]; its caller's slot
       one below holds the caller's code, registers and pc, and where
       frame [i]'s return value goes *)
    List.iteri
      (fun i (f : frame) ->
        let slot = depth - i - 1 in
        if slot >= 0 then st.stack_ret.(slot) <- f.ret;
        if i > 0 then begin
          let ops, pc = at f in
          st.stack_ops.(depth - i) <- ops;
          st.stack_regs.(depth - i) <- f.regs;
          st.stack_pc.(depth - i) <- pc
        end)
      frames;
    st

let outputs st = List.rev st.outputs
let steps st = st.steps
let memory st = st.mem
let halted st = st.halted

(** The event stream as a [Trace.t]. Takes ownership of the buffer: call
    once, after the run. *)
let trace st =
  if not st.traced then invalid_arg "Decode.trace: an untraced state keeps no trace";
  Trace.of_array st.ev ~len:st.evlen

(* the threaded-dispatch inner loop: one array load + one indirect call
   per reference-machine step *)
let run_steps st ~(limit : int) =
  while not st.halted && st.steps < limit do
    st.steps <- st.steps + 1;
    st.pc <- (Array.unsafe_get st.ops st.pc) st
  done

(** Run until halt or until [fuel] steps have been executed; raises
    [Fuel_exhausted] if the budget runs out first (same contract as
    [Machine.run]). *)
let run ?(fuel = 50_000_000) st =
  let limit = st.steps + fuel in
  run_steps st ~limit;
  if not st.halted then raise Fuel_exhausted

(** Decode, run to completion, return (final state, trace). The fast-path
    equivalent of [Machine.trace_of_program]. *)
let trace_of_program ?fuel (p : Prog.t) : st * Trace.t =
  let st = create (decode p) in
  run ?fuel st;
  (st, trace st)

(** Run functionally, untraced; returns the final state (memory +
    outputs). *)
let run_functional ?fuel (p : Prog.t) : st =
  let st = create ~traced:false (decode p) in
  run ?fuel st;
  st

(* ---- deterministic SPMD execution (mirrors [Multi]) ---- *)

type spmd = {
  sts : st array;
  quantum : int;
}

let default_quantum = 32

(** [create_spmd d ~threads ~worker]: [threads] decoded machines sharing
    one memory image, thread [t] entering [worker](t) — the decoded
    equivalent of [Multi.create], same round-robin quantum default. *)
let create_spmd ?(quantum = default_quantum) ?(traced = true) (d : t) ~threads
    ~worker : spmd =
  if threads <= 0 then invalid_arg "Decode.create_spmd: threads must be positive";
  if quantum <= 0 then invalid_arg "Decode.create_spmd: quantum must be positive";
  let wf =
    match Hashtbl.find_opt d.fidx worker with
    | Some i -> d.dfuncs.(i)
    | None -> invalid_arg ("Decode.create_spmd: no worker function " ^ worker)
  in
  if wf.d_nparams <> 1 then
    invalid_arg "Decode.create_spmd: worker must take exactly the thread id";
  let mem = Memory.create () in
  init_globals d mem;
  let sts =
    Array.init threads (fun tid ->
        let regs = Array.make wf.d_nregs 0 in
        regs.(0) <- tid;
        make_st ~tid ~traced ~mem ~regs ~ops:wf.d_ops)
  in
  { sts; quantum }

(** Run all threads to completion under the fixed round-robin quantum
    schedule (bit-reproducible; identical interleaving to [Multi.run]).
    Every pass steps some live thread, so a thread that spins forever
    uses up the fuel. *)
let run_spmd ?(fuel = 200_000_000) ?quantum (m : spmd) =
  let quantum = Option.value ~default:m.quantum quantum in
  let budget = ref fuel in
  let live () = Array.exists (fun st -> not st.halted) m.sts in
  while live () do
    Array.iter
      (fun st ->
        if not st.halted then begin
          (* same budget accounting as [Multi.run]: one fuel unit per
             step, checked before the step executes *)
          let want = ref quantum in
          while !want > 0 && not st.halted do
            if !budget <= 0 then raise Fuel_exhausted;
            decr budget;
            st.steps <- st.steps + 1;
            st.pc <- (Array.unsafe_get st.ops st.pc) st;
            decr want
          done
        end)
      m.sts
  done

(** SPMD trace generation: one commit trace per thread — the fast-path
    equivalent of [Multi.traces_of_program]. *)
let spmd_traces_of_program ?fuel ?quantum (p : Prog.t) ~threads ~worker :
    spmd * Trace.t array =
  let m = create_spmd (decode p) ~threads ~worker in
  run_spmd ?fuel ?quantum m;
  (m, Array.map trace m.sts)
