(* IR mutation operators. All operators work on flat instruction
   positions (block-order index over a function's instruction list,
   terminators excluded) and rebuild immutable blocks; [mutate] retries
   across the operator menu until [Validate.check] accepts a result. *)

open Cwsp_ir
open Cwsp_util

type op =
  | Splice
  | Insert
  | Delete
  | Op_flip
  | Addr_perturb
  | Move
  | Stride_widen
  | Lock_drop
  | Atomic_downgrade
  | Flush_insert
  | Flush_drop
  | Pfence_toggle

(* ---- flat-position plumbing ---- *)

let flat (fn : Prog.func) : Types.instr array =
  Array.of_list
    (List.rev (Prog.fold_instrs (fun acc _ _ i -> i :: acc) [] fn))

(* Replace the instruction at flat position [n] by [f instr] (a list:
   empty deletes, several expand). *)
let map_at (fn : Prog.func) n f =
  let k = ref (-1) in
  let blocks =
    Array.map
      (fun (b : Prog.block) ->
        {
          b with
          instrs =
            List.concat_map
              (fun i ->
                incr k;
                if !k = n then f i else [ i ])
              b.instrs;
        })
      fn.blocks
  in
  { fn with blocks }

(* Insert [ins] before flat position [n]; [n >= instr_count] appends to
   the last block. *)
let insert_at (fn : Prog.func) n ins =
  let k = ref (-1) in
  let placed = ref false in
  let blocks =
    Array.map
      (fun (b : Prog.block) ->
        {
          b with
          instrs =
            List.concat_map
              (fun i ->
                incr k;
                if !k = n then begin
                  placed := true;
                  ins @ [ i ]
                end
                else [ i ])
              b.instrs;
        })
      fn.blocks
  in
  let fn = { fn with blocks } in
  if !placed then fn
  else begin
    let blocks = Array.copy fn.blocks in
    let last = Array.length blocks - 1 in
    blocks.(last) <- { (blocks.(last)) with instrs = blocks.(last).instrs @ ins };
    { fn with blocks }
  end

(* ---- target selection ---- *)

(* Mutations mostly target user code; the runtime library is fair game
   one draw in four (a corrupted allocator or lock is exactly the kind
   of traffic the oracles should survive). *)
let pick_func rng (p : Prog.t) ~need_instrs : Prog.func option =
  let eligible (f : Prog.func) = (not need_instrs) || Prog.instr_count f > 0 in
  let user =
    List.filter
      (fun (n, f) ->
        eligible f && not (List.mem n Cwsp_runtime.Libc.function_names))
      p.funcs
  in
  let all = List.filter (fun (_, f) -> eligible f) p.funcs in
  let cands = if Rng.int rng 4 = 0 || user = [] then all else user in
  match cands with
  | [] -> None
  | _ -> Some (snd (Rng.pick rng (Array.of_list cands)))

(* ---- per-instruction rewrites ---- *)

let flip_binop rng op =
  let menu = [| Types.Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Lshr; Ashr |] in
  let rec go () =
    let o = Rng.pick rng menu in
    if o = op then go () else o
  in
  go ()

let flip_cmpop rng op =
  let menu = [| Types.Eq; Ne; Lt; Le; Gt; Ge |] in
  let rec go () =
    let o = Rng.pick rng menu in
    if o = op then go () else o
  in
  go ()

let op_flip rng (i : Types.instr) : Types.instr option =
  match i with
  | Bin (op, d, a, b) -> Some (Bin (flip_binop rng op, d, a, b))
  | Cmp (op, d, a, b) -> Some (Cmp (flip_cmpop rng op, d, a, b))
  | Mov (d, Imm v) -> Some (Mov (d, Imm (v lxor (1 lsl Rng.int rng 16))))
  | Store (b, o, Imm v) -> Some (Store (b, o, Imm (v + 1 + Rng.int rng 7)))
  | Atomic_rmw (op, d, b, o, s) -> Some (Atomic_rmw (flip_binop rng op, d, b, o, s))
  | _ -> None

let addr_perturb rng (i : Types.instr) : Types.instr option =
  let nudge o = max 0 (o + (8 * (Rng.int rng 9 - 4))) in
  match i with
  | Load (d, b, o) -> Some (Load (d, b, nudge o))
  | Store (b, o, s) -> Some (Store (b, nudge o, s))
  | Flush (b, o) -> Some (Flush (b, nudge o))
  | Atomic_rmw (op, d, b, o, s) -> Some (Atomic_rmw (op, d, b, nudge o, s))
  | Cas (d, b, o, e, w) -> Some (Cas (d, b, nudge o, e, w))
  | _ -> None

let stride_widen rng (i : Types.instr) : Types.instr option =
  match i with
  | Bin (And, d, a, Imm m) when m > 0 && m land (m + 1) = 0 ->
    Some (Bin (And, d, a, Imm ((2 * m) + 1)))
  | Bin (Mul, d, a, Imm k) when k > 0 ->
    Some (Bin (Mul, d, a, Imm (if Rng.bool rng then 2 * k else max 1 (k / 2))))
  | Bin (Shl, d, a, Imm k) when k > 0 && k < 16 ->
    Some (Bin (Shl, d, a, Imm (k + 1)))
  | _ -> None

(* ---- splice: registers of the grafted run are remapped ---- *)

let map_operand use = function
  | Types.Reg r -> Types.Reg (use r)
  | Types.Imm v -> Types.Imm v

(* Uses are resolved before the def extends the mapping, so a run's
   internal dataflow survives the graft. *)
let map_instr ~use ~def (i : Types.instr) : Types.instr =
  match i with
  | Bin (op, d, a, b) ->
    let a = map_operand use a and b = map_operand use b in
    Bin (op, def d, a, b)
  | Cmp (op, d, a, b) ->
    let a = map_operand use a and b = map_operand use b in
    Cmp (op, def d, a, b)
  | Mov (d, s) ->
    let s = map_operand use s in
    Mov (def d, s)
  | La (d, g) -> La (def d, g)
  | Load (d, b, o) ->
    let b = use b in
    Load (def d, b, o)
  | Store (b, o, s) -> Store (use b, o, map_operand use s)
  | Call (f, args, ret) ->
    let args = List.map (map_operand use) args in
    Call (f, args, Option.map def ret)
  | Atomic_rmw (op, d, b, o, s) ->
    let b = use b and s = map_operand use s in
    Atomic_rmw (op, def d, b, o, s)
  | Cas (d, b, o, e, w) ->
    let b = use b and e = map_operand use e and w = map_operand use w in
    Cas (def d, b, o, e, w)
  | Fence -> Fence
  | Flush (b, o) -> Flush (use b, o)
  | Pfence -> Pfence
  | Ckpt r -> Ckpt (use r)
  | Boundary id -> Boundary id

(* An instruction may be grafted into [p] when every symbol it names
   resolves there; compiler-owned instructions never move. *)
let spliceable (p : Prog.t) (i : Types.instr) =
  match i with
  | Types.La (_, g) -> Prog.find_global p g <> None
  | Types.Call (f, args, _) -> (
    match List.assoc_opt f Validate.intrinsics with
    | Some arity -> List.length args = arity
    | None -> (
      match Prog.find_func p f with
      | Some callee -> List.length args = callee.nparams
      | None -> false))
  | Types.Ckpt _ | Types.Boundary _ -> false
  | _ -> true

let splice rng ~(donor : Prog.t) (p : Prog.t) : Prog.t option =
  match pick_func rng donor ~need_instrs:true with
  | None -> None
  | Some dfn -> (
    match pick_func rng p ~need_instrs:true with
    | None -> None
    | Some tfn ->
      let code = flat dfn in
      let start = Rng.int rng (Array.length code) in
      let len = min (1 + Rng.int rng 6) (Array.length code - start) in
      let run = Array.to_list (Array.sub code start len) in
      if not (List.for_all (spliceable p) run) then None
      else begin
        let remap = Hashtbl.create 8 in
        let nregs = ref tfn.nregs in
        let use r =
          match Hashtbl.find_opt remap r with
          | Some r' -> r'
          | None -> if tfn.nregs = 0 then 0 else r mod tfn.nregs
        in
        let def r =
          let r' = !nregs in
          incr nregs;
          Hashtbl.replace remap r r';
          r'
        in
        let run = List.map (map_instr ~use ~def) run in
        if tfn.nregs = 0 && List.exists (fun i -> Types.uses i <> []) run then None
        else begin
          let at = Rng.int rng (Prog.instr_count tfn + 1) in
          let tfn = insert_at { tfn with nregs = !nregs } at run in
          Some (Prog.with_func p tfn)
        end
      end)

(* ---- fresh-instruction insertion ---- *)

let gen_instr rng (fn : Prog.func) : (Types.instr list * int) option =
  if fn.nregs = 0 then None
  else begin
    let r () = Rng.int rng fn.nregs in
    let operand () =
      if Rng.bool rng then Types.Imm (Rng.int rng 64 - 32) else Types.Reg (r ())
    in
    let d = fn.nregs in
    let off () = 8 * Rng.int rng 16 in
    match Rng.int rng 9 with
    | 0 -> Some ([ Types.Bin (flip_binop rng Types.Ashr, d, operand (), operand ()) ], d + 1)
    | 1 -> Some ([ Types.Cmp (flip_cmpop rng Types.Ge, d, operand (), operand ()) ], d + 1)
    | 2 -> Some ([ Types.Mov (d, operand ()) ], d + 1)
    | 3 -> Some ([ Types.Load (d, r (), off ()) ], d + 1)
    | 4 -> Some ([ Types.Store (r (), off (), operand ()) ], fn.nregs)
    | 5 -> Some ([ Types.Atomic_rmw (Types.Add, d, r (), off (), operand ()) ], d + 1)
    | 6 -> Some ([ Types.Fence ], fn.nregs)
    | 7 -> Some ([ Types.Flush (r (), off ()) ], fn.nregs)
    | _ -> Some ([ Types.Pfence ], fn.nregs)
  end

(* ---- positional operators ---- *)

let positions_matching (fn : Prog.func) pred =
  let code = flat fn in
  let out = ref [] in
  Array.iteri (fun i ins -> if pred ins then out := i :: !out) code;
  Array.of_list (List.rev !out)

let apply rng ~donor op (p : Prog.t) : Prog.t option =
  match op with
  | Splice -> splice rng ~donor p
  | Insert -> (
    match pick_func rng p ~need_instrs:false with
    | None -> None
    | Some fn -> (
      match gen_instr rng fn with
      | None -> None
      | Some (ins, nregs) ->
        let at = Rng.int rng (Prog.instr_count fn + 1) in
        Some (Prog.with_func p (insert_at { fn with nregs } at ins))))
  | Delete | Op_flip | Addr_perturb | Stride_widen -> (
    match pick_func rng p ~need_instrs:true with
    | None -> None
    | Some fn -> (
      let count = Prog.instr_count fn in
      let rewrite =
        match op with
        | Delete -> fun _ -> Some []
        | Op_flip -> fun i -> Option.map (fun x -> [ x ]) (op_flip rng i)
        | Addr_perturb -> fun i -> Option.map (fun x -> [ x ]) (addr_perturb rng i)
        | _ -> fun i -> Option.map (fun x -> [ x ]) (stride_widen rng i)
      in
      (* scan from a random start for a position the rewrite accepts *)
      let start = Rng.int rng count in
      let code = flat fn in
      let found = ref None in
      for k = 0 to count - 1 do
        if !found = None then begin
          let n = (start + k) mod count in
          match rewrite code.(n) with
          | Some ins -> found := Some (n, ins)
          | None -> ()
        end
      done;
      match !found with
      | None -> None
      | Some (n, ins) -> Some (Prog.with_func p (map_at fn n (fun _ -> ins)))))
  | Move -> (
    match pick_func rng p ~need_instrs:true with
    | None -> None
    | Some fn ->
      let count = Prog.instr_count fn in
      if count < 2 then None
      else begin
        let n = Rng.int rng count in
        let ins = (flat fn).(n) in
        if not (spliceable p ins) then None
        else begin
          let fn = map_at fn n (fun _ -> []) in
          let at = Rng.int rng count in
          Some (Prog.with_func p (insert_at fn at [ ins ]))
        end
      end)
  | Lock_drop -> (
    match pick_func rng p ~need_instrs:true with
    | None -> None
    | Some fn ->
      let locks =
        positions_matching fn (function
          | Types.Call (("spin_lock" | "spin_unlock"), _, _) -> true
          | _ -> false)
      in
      if Array.length locks = 0 then None
      else Some (Prog.with_func p (map_at fn (Rng.pick rng locks) (fun _ -> []))))
  | Atomic_downgrade -> (
    match pick_func rng p ~need_instrs:true with
    | None -> None
    | Some fn ->
      let rmws =
        positions_matching fn (function Types.Atomic_rmw _ -> true | _ -> false)
      in
      if Array.length rmws = 0 then None
      else begin
        let n = Rng.pick rng rmws in
        let t = fn.nregs in
        let fn = { fn with nregs = fn.nregs + 1 } in
        let fn =
          map_at fn n (function
            | Types.Atomic_rmw (op, d, b, o, s) ->
              [ Types.Load (d, b, o); Types.Bin (op, t, Reg d, s);
                Types.Store (b, o, Reg t) ]
            | i -> [ i ])
        in
        Some (Prog.with_func p fn)
      end)
  | Flush_insert -> (
    match pick_func rng p ~need_instrs:true with
    | None -> None
    | Some fn ->
      let stores =
        positions_matching fn (function Types.Store _ -> true | _ -> false)
      in
      if Array.length stores = 0 then None
      else begin
        let n = Rng.pick rng stores in
        let fn =
          map_at fn n (function
            | Types.Store (b, o, s) ->
              [ Types.Store (b, o, s); Types.Flush (b, o) ]
            | i -> [ i ])
        in
        Some (Prog.with_func p fn)
      end)
  | Flush_drop -> (
    match pick_func rng p ~need_instrs:true with
    | None -> None
    | Some fn ->
      let flushes =
        positions_matching fn (function Types.Flush _ -> true | _ -> false)
      in
      if Array.length flushes = 0 then None
      else Some (Prog.with_func p (map_at fn (Rng.pick rng flushes) (fun _ -> []))))
  | Pfence_toggle -> (
    match pick_func rng p ~need_instrs:true with
    | None -> None
    | Some fn ->
      let pfences =
        positions_matching fn (function Types.Pfence -> true | _ -> false)
      in
      if Array.length pfences > 0 && Rng.bool rng then
        Some (Prog.with_func p (map_at fn (Rng.pick rng pfences) (fun _ -> [])))
      else begin
        let at = Rng.int rng (Prog.instr_count fn + 1) in
        Some (Prog.with_func p (insert_at fn at [ Types.Pfence ]))
      end)

(* Splice and the generic edits dominate; the domain-aware operators get
   enough weight to matter on SPMD / explicit-persist corpus entries. *)
let menu =
  [|
    Splice; Splice; Splice;
    Insert; Insert;
    Delete; Delete; Delete;
    Op_flip; Op_flip; Op_flip;
    Addr_perturb; Addr_perturb;
    Move; Move;
    Stride_widen;
    Lock_drop;
    Atomic_downgrade;
    Flush_insert;
    Flush_drop;
    Pfence_toggle;
  |]

let mutate ?(tries = 12) rng ~donor (p : Prog.t) =
  let rec go k =
    if k = 0 then None
    else begin
      let op = Rng.pick rng menu in
      match apply rng ~donor op p with
      | Some p' when Validate.check p' = [] && Wellformed.defined p' -> Some (op, p')
      | _ -> go (k - 1)
      | exception _ -> go (k - 1)
    end
  in
  go tries
