(** Persistency-order dataflow analysis.

    Tracks, for an explicit-persistency (clwb/sfence-style) compile, the
    durability state of every store site: a store leaves its line *dirty*
    in the cache; a [Flush] of the same line moves it to *flushed*
    (written back but not yet guaranteed ordered); a [Pfence] (or a full
    synchronization fence/atomic, which subsumes one) makes every flushed
    line *durable*. The abstract domain is a finite map from store sites
    — (block, instruction) coordinates — to [Dirty]/[Flushed]; absence
    means durable-or-clean. The join takes the pointwise worst state
    (Dirty > Flushed > absent), so a fact survives only if it holds on
    every path.

    Commit points — region boundaries, calls to non-intrinsic functions
    (the callee's entry boundary dynamically closes the caller's open
    region), and returns (the modular interprocedural contract: a
    function leaves all its stores durable) — require the map to be
    empty; the verifier tier [Persist_check] reports each residue, and
    the insertion pass [Persist_insert] discharges it. Both therefore
    model a commit as clearing the map.

    Alias classes come from [Alias.mem_sites]: flushes cover dirty sites
    with the identical [Exact] symbolic address, plus a block-local
    syntactic rule (same base register and displacement, base not
    redefined in between) that covers [Within]/[Any] stores flushed
    immediately after the store. Checkpoint writes are exempt: the
    register-checkpoint engine keeps its hardware persist path in every
    mode. *)

open Cwsp_ir

module Site = struct
  type t = int * int

  let compare = compare
end

module Site_map = Map.Make (Site)

type dur = Dirty | Flushed

type state = dur Site_map.t

(* ---- domain ---- *)

let join_dur a b = match (a, b) with Dirty, _ | _, Dirty -> Dirty | _ -> Flushed

let join (a : state) (b : state) : state =
  Site_map.union (fun _ x y -> Some (join_dur x y)) a b

let equal_state = Site_map.equal ( = )

(* ---- commit points ---- *)

(** Is a call to [callee] a commit point? Intrinsics execute inline with
    no entry boundary; every real callee opens with a boundary that
    dynamically closes the caller's region. *)
let commit_call callee = not (List.mem_assoc callee Validate.intrinsics)

let is_commit_instr = function
  | Types.Boundary _ -> true
  | Types.Call (callee, _, _) -> commit_call callee
  | _ -> false

(* ---- per-instruction transfer ---- *)

type ctx = {
  syms : (int * int, Alias.sym) Hashtbl.t;
  kinds : (int * int, Alias.site_kind) Hashtbl.t;
}

let sym_of ctx site =
  match Hashtbl.find_opt ctx.syms site with Some s -> s | None -> Alias.Any

let exact_eq a b =
  match (a, b) with
  | Alias.Exact (g1, o1), Alias.Exact (g2, o2) -> g1 = g2 && o1 = o2
  | _ -> false

(* The block-local syntactic address map: (base reg, displacement) ->
   last store site through that addressing expression, invalidated when
   the base register is redefined. Covers flushes of [Within]/[Any]
   stores placed next to the store they cover. *)
type local = (int * int, int * int) Hashtbl.t

let local_invalidate (local : local) d =
  let stale =
    Hashtbl.fold (fun (b, o) _ acc -> if b = d then (b, o) :: acc else acc)
      local []
  in
  List.iter (Hashtbl.remove local) stale

(* Remove sites that [site] must overwrite: the identical Exact class, or
   the block-local same addressing expression. An overwritten store's old
   value no longer needs durability — only the final value at a commit
   does (an intermediate flushed value reaching a commit is still an
   error, reported at the overwriting store's own site). *)
let kill_overwritten ctx ~sym ~(local : local) ~base ~off state =
  let state =
    match sym with
    | Alias.Exact _ ->
      Site_map.filter (fun s _ -> not (exact_eq (sym_of ctx s) sym)) state
    | Alias.Within _ | Alias.Any -> state
  in
  match Hashtbl.find_opt local (base, off) with
  | Some s -> Site_map.remove s state
  | None -> state

(* Sites a flush at [base + off] with symbolic address [fsym] upgrades:
   dirty sites of the identical Exact class, plus the block-local
   syntactic match. Returns the new state and the covered sites. *)
let cover ctx ~fsym ~(local : local) ~base ~off state =
  let covered = ref [] in
  let state =
    match fsym with
    | Alias.Exact _ ->
      Site_map.mapi
        (fun s d ->
          if d = Dirty && exact_eq (sym_of ctx s) fsym then begin
            covered := s :: !covered;
            Flushed
          end
          else d)
        state
    | Alias.Within _ | Alias.Any -> state
  in
  match Hashtbl.find_opt local (base, off) with
  | Some s when Site_map.find_opt s state = Some Dirty ->
    covered := s :: !covered;
    (Site_map.add s Flushed state, !covered)
  | _ -> (state, !covered)

let drain state = Site_map.filter (fun _ d -> d = Dirty) state

(* One instruction: returns the post-state and, for flushes, the covered
   sites (for the redundancy lint). Mutates [local]. *)
let step ctx ~bi ~ii (ins : Types.instr) (local : local) (state : state) :
    state * (int * int) list =
  let site = (bi, ii) in
  let state, covered =
    match ins with
    | Types.Store (base, off, _) ->
      let sym = sym_of ctx site in
      let state = kill_overwritten ctx ~sym ~local ~base ~off state in
      Hashtbl.replace local (base, off) site;
      (Site_map.add site Dirty state, [])
    | Types.Flush (base, off) ->
      let fsym = sym_of ctx site in
      cover ctx ~fsym ~local ~base ~off state
    | Types.Pfence | Types.Fence -> (drain state, [])
    | Types.Atomic_rmw (_, _, base, off, _) | Types.Cas (_, base, off, _, _) ->
      (* full fence, and a hardware failure-atomic overwrite of its own
         location (durable with its closing boundary) — no obligation *)
      let sym = sym_of ctx site in
      let state = kill_overwritten ctx ~sym ~local ~base ~off state in
      (drain state, [])
    | Types.Boundary _ -> (Site_map.empty, [])
    | Types.Call (callee, _, _) when commit_call callee -> (Site_map.empty, [])
    | _ -> (state, [])
  in
  (match Types.def ins with
  | Some d -> local_invalidate local d
  | None -> ());
  (state, covered)

(* ---- block-level solver on the shared Dataflow engine ---- *)

module Problem = struct
  module D = struct
    type t = state

    let bottom = Site_map.empty
    let equal = equal_state
    let join = join
  end

  type nonrec ctx = ctx * Prog.func

  let direction = `Forward
  let boundary _ _ = Site_map.empty

  let transfer (ctx, fn) _fn bi state =
    let local : local = Hashtbl.create 8 in
    let st = ref state in
    List.iteri
      (fun ii ins -> st := fst (step ctx ~bi ~ii ins local !st))
      fn.Prog.blocks.(bi).instrs;
    !st
end

module Solver = Dataflow.Make (Problem)

type t = {
  fn : Prog.func;
  ctx : ctx;
  inb : state array;   (** durability state at each block entry *)
  outb : state array;  (** durability state at each block exit *)
  reachable : bool array;
  headers : bool array;
  doms : Dominators.t;
}

let analyze (fn : Prog.func) : t =
  let syms = Hashtbl.create 64 in
  let kinds = Hashtbl.create 64 in
  List.iter
    (fun (site, kind, sym) ->
      Hashtbl.replace syms site sym;
      Hashtbl.replace kinds site kind)
    (Alias.mem_sites fn);
  let ctx = { syms; kinds } in
  let { Solver.inb; outb } = Solver.solve (ctx, fn) fn in
  {
    fn;
    ctx;
    inb;
    outb;
    reachable = Cfg.reachable fn;
    headers = Loops.headers fn;
    doms = Dominators.compute fn;
  }

let sym_at t site = sym_of t.ctx site

(** Walk block [bi], calling [f ~ii ins ~before ~covered] with the state
    immediately before each instruction and the sites a flush covers. *)
let iter_block t bi
    ~(f : ii:int -> Types.instr -> before:state -> covered:(int * int) list ->
       unit) : unit =
  let local : local = Hashtbl.create 8 in
  let st = ref t.inb.(bi) in
  List.iteri
    (fun ii ins ->
      let before = !st in
      let after, covered = step t.ctx ~bi ~ii ins local before in
      f ~ii ins ~before ~covered;
      st := after)
    t.fn.Prog.blocks.(bi).instrs

(** Is the back-edge predecessor test satisfied: predecessor [p] of loop
    header [h] closes the loop (h dominates p)? Used to separate
    loop-carried obligations (flushed at the latch, once per iteration)
    from loop-entry obligations (hoisted to the preheader edge). *)
let is_back_edge t ~header ~pred =
  Dominators.dominates t.doms ~a:header ~b:pred

let string_of_sym = function
  | Alias.Exact (g, o) -> Printf.sprintf "%s+%d" g o
  | Alias.Within g -> Printf.sprintf "%s+?" g
  | Alias.Any -> "?"
