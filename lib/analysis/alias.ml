(** Object-provenance alias analysis.

    Plays the role of LLVM's alias analysis in the cWSP compiler
    (Section IV-A): it classifies every memory access of a function by a
    symbolic address — a (global object, offset) pair when provable,
    [Any] otherwise. Two accesses may alias unless their symbolic
    addresses are provably disjoint. Heap pointers (loaded from memory or
    returned by calls) resolve to [Any], which is conservative: it only
    produces extra region cuts, never missed antidependences. *)

open Cwsp_ir

(* Provenance of a register value. *)
type prov =
  | Bot                       (* no pointer information yet *)
  | Obj of string * offv      (* address inside a named global *)
  | Unknown                   (* may point anywhere *)

and offv = Const of int | AnyOff

let join_off a b =
  match (a, b) with
  | Const x, Const y when x = y -> Const x
  | _ -> AnyOff

let join_prov a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Unknown, _ | _, Unknown -> Unknown
  | Obj (g1, o1), Obj (g2, o2) ->
    if g1 = g2 then Obj (g1, join_off o1 o2) else Unknown

let equal_prov a b =
  match (a, b) with
  | Bot, Bot | Unknown, Unknown -> true
  | Obj (g1, Const x), Obj (g2, Const y) -> g1 = g2 && x = y
  | Obj (g1, AnyOff), Obj (g2, AnyOff) -> g1 = g2
  | _ -> false

(* Transfer function for one instruction over a mutable register state. *)
let transfer state (ins : Types.instr) =
  let get = function
    | Types.Reg r -> state.(r)
    | Types.Imm _ -> Bot
  in
  let set d p = state.(d) <- p in
  match ins with
  | La (d, g) -> set d (Obj (g, Const 0))
  | Mov (d, src) -> set d (get src)
  | Bin (Add, d, a, b) -> (
    match (a, b, get a, get b) with
    | _, Types.Imm k, Obj (g, Const c), _ -> set d (Obj (g, Const (c + k)))
    | Types.Imm k, _, _, Obj (g, Const c) -> set d (Obj (g, Const (c + k)))
    | _, _, Obj (g, _), Bot | _, _, Bot, Obj (g, _) -> set d (Obj (g, AnyOff))
    | _, _, Obj _, _ | _, _, _, Obj _ -> set d Unknown
    | _, _, Unknown, _ | _, _, _, Unknown -> set d Unknown
    | _ -> set d Bot)
  | Bin (Sub, d, a, b) -> (
    match (b, get a) with
    | Types.Imm k, Obj (g, Const c) -> set d (Obj (g, Const (c - k)))
    | _, Obj (g, _) -> set d (Obj (g, AnyOff))
    | _, Unknown -> set d Unknown
    | _ -> set d Bot)
  | Bin (_, d, a, b) -> (
    (* other arithmetic on a pointer loses precision *)
    match (get a, get b) with
    | (Obj _ | Unknown), _ | _, (Obj _ | Unknown) -> set d Unknown
    | _ -> set d Bot)
  | Cmp (_, d, _, _) -> set d Bot
  | Load (d, _, _) -> set d Unknown (* loaded values may be heap pointers *)
  | Atomic_rmw (_, d, _, _, _) | Cas (d, _, _, _, _) -> set d Unknown
  | Call (_, _, Some d) -> set d Unknown
  | Call (_, _, None) | Store _ | Fence | Flush _ | Pfence | Ckpt _
  | Boundary _ -> ()

(** Resolved symbolic address of one access. *)
type sym = Exact of string * int | Within of string | Any

let resolve_addr prov disp =
  match prov with
  | Obj (g, Const c) -> Exact (g, c + disp)
  | Obj (g, AnyOff) -> Within g
  | Unknown | Bot -> Any

let may_alias a b =
  match (a, b) with
  | Any, _ | _, Any -> true
  | Exact (g1, o1), Exact (g2, o2) -> g1 = g2 && o1 = o2
  | Within g1, Within g2 | Within g1, Exact (g2, _) | Exact (g1, _), Within g2 ->
    g1 = g2

type access = {
  a_bi : int;
  a_ii : int;
  reads : bool;
  writes : bool;
  sym : sym;
}

(* Every data memory instruction of [fn]'s reachable blocks with its
   resolved address, in program order: the one walk [accesses] and
   [mem_sites] filter. *)
let sites (fn : Prog.func) =
  let entry =
    Array.init (max 1 fn.nregs) (fun r -> if r < fn.nparams then Unknown else Bot)
  in
  let states, reachable =
    Dataflow.register_states
      { bottom = Bot; equal = equal_prov; step = transfer;
        (* no widening: offsets join to [AnyOff] at once; the full arity
           keeps the sweep's call direct *)
        join = (fun ~widen:_ a b -> join_prov a b) }
      ~entry fn
  in
  let result = ref [] in
  Array.iteri
    (fun bi (blk : Prog.block) ->
      if reachable.(bi) then
        Dataflow.walk_block transfer states.(bi) blk (fun ii ins state ->
            match ins with
            | Types.Load (_, base, off)
            | Types.Store (base, off, _)
            | Types.Flush (base, off)
            | Types.Atomic_rmw (_, _, base, off, _)
            | Types.Cas (_, base, off, _, _) ->
              result := (bi, ii, ins, resolve_addr state.(base) off) :: !result
            | _ -> ()))
    fn.blocks;
  List.rev !result

(** Flow-sensitive resolution of every data memory access of [fn].
    Checkpoint writes are excluded: the checkpoint area is hardware-managed
    and never read by program loads (only by the recovery runtime), so it
    cannot participate in a memory antidependence. *)
let accesses (fn : Prog.func) : access list =
  List.filter_map
    (fun (a_bi, a_ii, ins, sym) ->
      let access reads writes = Some { a_bi; a_ii; reads; writes; sym } in
      match ins with
      | Types.Load _ -> access true false
      | Types.Store _ -> access false true
      | Types.Atomic_rmw _ | Types.Cas _ -> access true true
      | _ -> None)
    (sites fn)

(** The kind of persist-relevant memory site at one position. *)
type site_kind = Sk_store | Sk_flush | Sk_atomic

(** Flow-sensitive symbolic addresses of every store, flush, and atomic of
    [fn], in program order — the site classification the persistency-order
    analysis ([Persist_order]) keys its abstract domain on. Loads are
    irrelevant to durability and excluded; so are checkpoint writes (the
    hardware checkpoint persist path handles them in every mode). *)
let mem_sites (fn : Prog.func) : ((int * int) * site_kind * sym) list =
  List.filter_map
    (fun (bi, ii, ins, sym) ->
      let site kind = Some ((bi, ii), kind, sym) in
      match ins with
      | Types.Store _ -> site Sk_store
      | Types.Flush _ -> site Sk_flush
      | Types.Atomic_rmw _ | Types.Cas _ -> site Sk_atomic
      | _ -> None)
    (sites fn)
