(** Structural well-formedness of compiled programs.

    Two groups of checks. The boundary-id lint applies to renumbered
    programs (any configuration that ran region formation): global ids
    must be unique, strictly increasing in traversal order, and exactly
    cover the recovery-slice table with matching owner functions —
    recovery dispatches on these ids, so any slip silently restores the
    wrong slice. The always-on checks are configuration-independent:
    every checkpoint must sit directly in front of the boundary it
    belongs to (the [Pass]/[remove_pruned] attachment convention), and no
    user store may target the hardware checkpoint slot area, which would
    let program data corrupt checkpointed registers. *)

open Cwsp_ir

(* ---- boundary-id discipline (renumbered programs only) ---- *)

let id_diags ~(slices_len : int) ~(boundary_owner : string array)
    (prog : Prog.t) : Diag.t list =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let seen : (int, string * int * int) Hashtbl.t = Hashtbl.create 64 in
  let prev = ref (-1) in
  let count = ref 0 in
  List.iter
    (fun (_, (fn : Prog.func)) ->
      Prog.iter_instrs
        (fun bi ii ins ->
          match ins with
          | Types.Boundary id ->
            incr count;
            (match Hashtbl.find_opt seen id with
            | Some (f0, b0, i0) ->
              add
                (Diag.error Duplicate_boundary_id ~func:fn.name ~block:bi
                   ~instr:ii "boundary id %d already used at %s:(%d,%d)" id f0
                   b0 i0)
            | None -> Hashtbl.replace seen id (fn.name, bi, ii));
            if id <= !prev then
              add
                (Diag.error Nonmonotone_boundary_id ~func:fn.name ~block:bi
                   ~instr:ii
                   "boundary id %d does not increase over the previous id %d \
                    in traversal order"
                   id !prev);
            prev := id;
            if id < 0 || id >= slices_len then
              add
                (Diag.error Boundary_id_range ~func:fn.name ~block:bi ~instr:ii
                   "boundary id %d outside the recovery table [0,%d)" id
                   slices_len)
            else if boundary_owner.(id) <> fn.name then
              add
                (Diag.error Boundary_id_range ~func:fn.name ~block:bi ~instr:ii
                   "boundary id %d is owned by %s, not %s" id
                   boundary_owner.(id) fn.name)
          | _ -> ())
        fn)
    prog.funcs;
  if !count <> slices_len then
    add
      (Diag.error Boundary_id_range ~func:prog.main ~block:(-1) ~instr:(-1)
         "program has %d boundaries but the recovery table has %d entries"
         !count slices_len);
  List.rev !diags

(* ---- checkpoint placement ---- *)

(* Each Ckpt must be followed, within its block and across only further
   Ckpts, by the Boundary it checkpoints for. *)
let ckpt_placement_diags (fn : Prog.func) : Diag.t list =
  let diags = ref [] in
  Array.iteri
    (fun bi (blk : Prog.block) ->
      let rec go ii = function
        | [] -> ()
        | Types.Ckpt r :: rest ->
          let rec attached = function
            | Types.Ckpt _ :: tl -> attached tl
            | Types.Boundary _ :: _ -> true
            | _ -> false
          in
          if not (attached rest) then
            diags :=
              Diag.error Ckpt_placement ~func:fn.name ~block:bi ~instr:ii
                "checkpoint of r%d is not attached to a following boundary" r
              :: !diags;
          go (ii + 1) rest
        | _ :: rest -> go (ii + 1) rest
      in
      go 0 blk.instrs)
    fn.blocks;
  List.rev !diags

(* ---- stores into the checkpoint slot area ---- *)

(* Block-local constant propagation over registers; enough to catch
   hard-coded checkpoint-area addresses without a whole-program value
   analysis. [La] yields unknown: globals are laid out from
   [Layout.global_base], far below [Layout.ckpt_base]. *)
let ckpt_area_diags (fn : Prog.func) : Diag.t list =
  let diags = ref [] in
  let flag ~bi ~ii base_const off what =
    let addr = base_const + off in
    if Layout.is_ckpt_addr addr then
      diags :=
        Diag.error Ckpt_area_store ~func:fn.name ~block:bi ~instr:ii
          "%s targets address 0x%x inside the register-checkpoint area" what
          addr
        :: !diags
  in
  Array.iteri
    (fun bi (blk : Prog.block) ->
      let const : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let cval = function
        | Types.Imm v -> Some v
        | Types.Reg r -> Hashtbl.find_opt const r
      in
      let set r = function
        | Some v -> Hashtbl.replace const r v
        | None -> Hashtbl.remove const r
      in
      List.iteri
        (fun ii ins ->
          (match ins with
          | Types.Store (base, off, _) ->
            Option.iter
              (fun c -> flag ~bi ~ii c off "store")
              (Hashtbl.find_opt const base)
          | Types.Atomic_rmw (_, _, base, off, _) ->
            Option.iter
              (fun c -> flag ~bi ~ii c off "atomic rmw")
              (Hashtbl.find_opt const base)
          | Types.Cas (_, base, off, _, _) ->
            Option.iter
              (fun c -> flag ~bi ~ii c off "cas")
              (Hashtbl.find_opt const base)
          | _ -> ());
          match ins with
          | Types.Mov (dst, src) -> set dst (cval src)
          | Types.Bin (op, dst, a, b) -> (
            match (cval a, cval b) with
            | Some x, Some y -> set dst (Some (Eval.binop op x y))
            | _ -> set dst None)
          | Types.Cmp (op, dst, a, b) -> (
            match (cval a, cval b) with
            | Some x, Some y -> set dst (Some (Eval.cmpop op x y))
            | _ -> set dst None)
          | _ -> ( match Types.def ins with Some d -> set d None | None -> ()))
        blk.instrs)
    fn.blocks;
  List.rev !diags

(** Configuration-independent structural checks of one function. *)
let check_func (fn : Prog.func) : Diag.t list =
  ckpt_placement_diags fn @ ckpt_area_diags fn
