(** Static SPMD data-race analysis.

    The SPMD runs ([Decode.run_spmd]) are sequentially
    consistent *for data-race-free programs* (Section VIII) — this
    analysis discharges that premise. Over a program whose threads all
    run one worker function, it classifies every cross-thread
    conflicting access pair on shared globals, combining three
    ingredients:

    - [Tid_affine] disjointness: accesses of the shape
      [base + f(tid)] are proven pairwise-disjoint across threads by
      stride/range reasoning — the lock-free half of the story;
    - a lockset analysis (Eraser-style, run on the shared [Dataflow]
      solver) recognizing the repository's own lock idioms as named
      patterns (below);
    - [Interproc] bottom-up summaries, so accesses and lock effects
      inside callees ([spin_lock], [memcpy], the allocator) are
      instantiated at worker call sites.

    {2 Named lock-operation patterns}

    - [Cas_acquire]: a {e guarded} [cas (expected 0) (desired nonzero)]
      — the spinlock acquire in [Cwsp_runtime.Libc.spin_lock] and the
      inline spins in [Workloads.Kernels.transactions] /
      [Workloads.W_parallel.ptso]. Guarded means the CAS result is
      compared against the expected value and the failure edge of that
      comparison branches back to re-execute the CAS ([cas_guarded]):
      only then does a successful CAS witness that no other thread
      holds the lock. A CAS whose outcome is ignored, or whose failure
      path proceeds into the "critical" section anyway, excludes
      nothing and is demoted to an ordinary atomic data access.
    - [Rmw_release]: [atomic_rmw And _ (Imm 0)] — [spin_unlock]. The
      release applies its lockset effect {e and} is still recorded as
      an atomic write to the word, so mixed atomic/plain traffic on the
      word stays visible to classification.
    - [Tso_release]: a *plain* store of 0 to a known lock word — the
      x86 unlock idiom [Workloads.Kernels.transactions] uses ("on TSO a
      plain store suffices"). Under the interpreter's SC-interleaving
      memory this publishes the critical section exactly like an atomic
      release, so the lockset treats it as one; it is only recognized
      on words some {e guarded} acquire targets, anything else stored
      to a lock word remains an ordinary (racy) access.

    A bare fetch-add such as [atomic_rmw Add lock (Imm 1)] with the
    result discarded is deliberately {e not} an acquire: it never
    blocks or retries, so every thread sails into the section and the
    only thing the RMW provides is atomicity of its own update. It is
    classified as what it is — an [Ip.Rmw] data access.

    A lock identity must be a provably unique concrete word
    ([Ta.exact_place]); acquire shapes on unprovable addresses are
    demoted to ordinary atomic data accesses. Locks that may still be
    held at worker exit broke release discipline and protect nothing —
    their "critical sections" are classified as data races. *)

open Cwsp_ir
module Ta = Tid_affine
module Ip = Interproc

(* ---- named patterns ---- *)

type pattern = Cas_acquire | Rmw_release | Tso_release

(* Shape-level classification (address and guard not yet considered). *)
let atomic_pattern (ins : Types.instr) : pattern option =
  match ins with
  | Types.Cas (_, _, _, Types.Imm 0, Types.Imm d) when d <> 0 -> Some Cas_acquire
  | Types.Atomic_rmw (Types.And, _, _, _, Types.Imm 0) -> Some Rmw_release
  | _ -> None

(* ---- acquire-guard verification ---- *)

(* Register written by an instruction, if any. *)
let def_of = function
  | Types.Bin (_, d, _, _)
  | Types.Cmp (_, d, _, _)
  | Types.Mov (d, _)
  | Types.La (d, _)
  | Types.Load (d, _, _)
  | Types.Atomic_rmw (_, d, _, _, _)
  | Types.Cas (d, _, _, _, _)
  | Types.Call (_, _, Some d) -> Some d
  | _ -> None

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t

(* Does label [l] re-execute the CAS's block [target]? Either directly,
   or through a short chain of empty forwarding blocks. *)
let rec retries_to (fn : Prog.func) ~target l ~depth =
  l = target
  || depth > 0
     && (let blk = fn.blocks.(l) in
         blk.instrs = []
         &&
         match blk.term with
         | Types.Jmp l' -> retries_to fn ~target l' ~depth:(depth - 1)
         | _ -> false)

(** A [Cas_acquire] shape only acquires if it is {e guarded}: within
    its block the CAS result [d] is compared against the expected value
    0 (before any redefinition of [d]), the comparison result reaches
    the block terminator unclobbered, and the terminator branches the
    {e failure} side back to the CAS's own block — i.e. the thread
    spins until the CAS succeeds. Anything looser (result ignored,
    failure path falling through into the section) provides no mutual
    exclusion. *)
let cas_guarded (fn : Prog.func) ~bi ~ii d : bool =
  let blk = fn.blocks.(bi) in
  let rec find_guard = function
    | [] -> None
    | Types.Cmp (((Types.Eq | Types.Ne) as op), g, Types.Reg r, Types.Imm 0) :: tl
      when r = d ->
      Some (op, g, tl)
    | Types.Cmp (((Types.Eq | Types.Ne) as op), g, Types.Imm 0, Types.Reg r) :: tl
      when r = d ->
      Some (op, g, tl)
    | ins :: tl -> if def_of ins = Some d then None else find_guard tl
  in
  match find_guard (drop (ii + 1) blk.instrs) with
  | None -> false
  | Some (op, g, rest) -> (
    List.for_all (fun ins -> def_of ins <> Some g) rest
    &&
    match blk.term with
    | Types.Br (r, ifso, ifnot) when r = g ->
      (* [Br] takes [ifso] when g <> 0: for [Eq old 0] success is the
         taken edge, for [Ne old 0] success is the fall-through. *)
      let fail = match op with Types.Eq -> ifnot | _ -> ifso in
      retries_to fn ~target:bi fail ~depth:4
    | _ -> false)

(* Guarded Cas_acquire sites of a function, keyed by (block, instr). *)
let guarded_sites (fn : Prog.func) : (int * int, unit) Hashtbl.t =
  let t = Hashtbl.create 4 in
  Array.iteri
    (fun bi (blk : Prog.block) ->
      List.iteri
        (fun ii ins ->
          match ins with
          | Types.Cas (d, _, _, Types.Imm 0, Types.Imm dz) when dz <> 0 ->
            if cas_guarded fn ~bi ~ii d then Hashtbl.replace t (bi, ii) ()
          | _ -> ())
        blk.instrs)
    fn.blocks;
  t

(* ---- lockset flow state ---- *)

(* Sorted place lists as sets. *)
let union a b = List.sort_uniq compare (List.rev_append a b)
let inter a b = List.filter (fun x -> List.mem x b) a
let remove x l = List.filter (fun y -> y <> x) l
let add x l = if List.mem x l then l else List.sort compare (x :: l)

type ls = {
  must : Ta.place list; (* held on every path *)
  may : Ta.place list; (* held on some path *)
  rel : Ta.place list; (* released on every path *)
}

(* What one instruction does to the lockset. *)
type effect_ =
  | Enone (* ordinary instruction (data accesses included) *)
  | Eacquire of Ta.place
  | Erelease of Ta.place
  | Ecall of string * Ip.summary (* instantiated at the call site *)

type fctx = {
  fn : Prog.func;
  av : Ta.t array array; (* tid-affine entry states per block *)
  guarded : (int * int, unit) Hashtbl.t; (* guarded Cas_acquire sites *)
  lock_objs : (Ta.place, unit) Hashtbl.t; (* exact words some acquire targets *)
  lookup : string -> Ip.summary option;
}

let operand_av (av : Ta.t array) = function
  | Types.Reg r -> av.(r)
  | Types.Imm c -> Ta.const c

let args_av av args = Array.of_list (List.map (operand_av av) args)

(* Classify one instruction given the live tid-affine state. [bi]/[ii]
   locate the instruction so [Cas_acquire] shapes can be checked for a
   guard; unguarded ones stay [Enone] (ordinary atomic data access). *)
let effect_of (ctx : fctx) (av : Ta.t array) ~bi ~ii (ins : Types.instr) :
    effect_ =
  match ins with
  | Types.Cas (_, base, _, _, _) | Types.Atomic_rmw (_, _, base, _, _) -> (
    match atomic_pattern ins with
    | None -> Enone
    | Some Cas_acquire when not (Hashtbl.mem ctx.guarded (bi, ii)) -> Enone
    | Some pat -> (
      let off =
        match ins with
        | Types.Cas (_, _, o, _, _) | Types.Atomic_rmw (_, _, _, o, _) -> o
        | _ -> 0
      in
      let p = Ta.place_of av.(base) ~disp:off in
      if not (Ta.exact_place p) then Enone
      else
        match pat with
        | Cas_acquire -> Eacquire p
        | Rmw_release | Tso_release -> Erelease p))
  | Types.Store (base, off, Types.Imm 0) ->
    (* Tso_release: plain unlock store, only on known lock words *)
    let p = Ta.place_of av.(base) ~disp:off in
    if Ta.exact_place p && Hashtbl.mem ctx.lock_objs p then Erelease p else Enone
  | Types.Call (f, args, _) -> (
    match ctx.lookup f with
    | Some s ->
      Ecall (f, Ip.instantiate s ~callee:f ~args:(args_av av args) ~bi:0 ~ii:0)
    | None -> Enone)
  | _ -> Enone

let apply_effect ls = function
  | Enone -> ls
  | Eacquire p -> { ls with must = add p ls.must; may = add p ls.may }
  | Erelease p ->
    { must = remove p ls.must; may = remove p ls.may; rel = add p ls.rel }
  | Ecall (_, s) ->
    let sub l = List.fold_left (fun acc p -> remove p acc) l s.Ip.s_released in
    let addl l = List.fold_left (fun acc p -> add p acc) l s.Ip.s_acquired in
    {
      must = addl (sub ls.must);
      may = addl (sub ls.may);
      rel = List.fold_left (fun acc p -> add p acc) ls.rel s.Ip.s_released;
    }

module Lockset_problem = struct
  module D = struct
    type t = ls option (* None: unreachable *)

    let bottom = None
    let equal = ( = )

    let join a b =
      match (a, b) with
      | None, x | x, None -> x
      | Some a, Some b ->
        Some
          {
            must = inter a.must b.must;
            may = union a.may b.may;
            rel = inter a.rel b.rel;
          }
  end

  type ctx = fctx

  let direction = `Forward
  let boundary _ _ = Some { must = []; may = []; rel = [] }

  let transfer (ctx : ctx) (fn : Prog.func) bi (s : D.t) : D.t =
    match s with
    | None -> None
    | Some ls ->
      let state = ref ls in
      Dataflow.walk_block Ta.step ctx.av.(bi) fn.blocks.(bi) (fun ii ins av ->
          state := apply_effect !state (effect_of ctx av ~bi ~ii ins));
      Some !state
end

module Lockset_solver = Dataflow.Make (Lockset_problem)

(* ---- per-function engine ---- *)

type fresult = {
  r_accesses : Ip.access list;
  r_may_exit : Ta.place list; (* may-held at some Ret: broken discipline *)
  r_rel_exit : Ta.place list; (* released on every path to every Ret *)
  r_lock_objs : (Ta.place, unit) Hashtbl.t;
}

let analyze ~(lookup : string -> Ip.summary option) ?tid_param (fn : Prog.func)
    : fresult =
  let av, reachable = Ta.block_entry_states ?tid_param fn in
  let guarded = guarded_sites fn in
  (* Pre-pass: every exact word a *guarded* acquire (direct or via a
     summarized callee) targets is a lock object; the set must exist
     before the lockset flow so [Tso_release] stores classify. *)
  let lock_objs : (Ta.place, unit) Hashtbl.t = Hashtbl.create 4 in
  Array.iteri
    (fun bi (blk : Prog.block) ->
      if reachable.(bi) then
        Dataflow.walk_block Ta.step av.(bi) blk (fun ii ins st ->
            match ins with
            | Types.Cas (_, base, off, _, _) -> (
              match atomic_pattern ins with
              | Some Cas_acquire when Hashtbl.mem guarded (bi, ii) ->
                let p = Ta.place_of st.(base) ~disp:off in
                if Ta.exact_place p then Hashtbl.replace lock_objs p ()
              | _ -> ())
            | Types.Call (f, args, _) -> (
              match lookup f with
              | Some s ->
                let inst =
                  Ip.instantiate s ~callee:f ~args:(args_av st args) ~bi ~ii:0
                in
                List.iter
                  (fun p ->
                    if Ta.exact_place p then Hashtbl.replace lock_objs p ())
                  (inst.Ip.s_acquired @ inst.Ip.s_released)
              | None -> ())
            | _ -> ()))
    fn.blocks;
  let ctx = { fn; av; guarded; lock_objs; lookup } in
  let solved = Lockset_solver.solve ctx fn in
  (* Collection pass: data accesses with the locks held at them, plus
     the exit-state lock discipline facts. *)
  let accesses = ref [] in
  let may_exit = ref [] in
  let rel_exit = ref None in
  Array.iteri
    (fun bi (blk : Prog.block) ->
      if reachable.(bi) then begin
        let ls =
          ref
            (match solved.inb.(bi) with
            | Some ls -> ls
            | None -> { must = []; may = []; rel = [] })
        in
        Dataflow.walk_block Ta.step av.(bi) blk (fun ii ins st ->
            let eff = effect_of ctx st ~bi ~ii ins in
            (match (eff, ins) with
            | Erelease _, Types.Atomic_rmw (_, _, base, off, _) ->
              (* Rmw_release: lockset effect *and* an atomic write to
                 the word — mixed atomic/plain traffic must stay
                 classifiable *)
              accesses :=
                { Ip.kind = Ip.Rmw; place = Ta.place_of st.(base) ~disp:off;
                  locks = !ls.must; bi; ii; path = "" }
                :: !accesses
            | (Eacquire _ | Erelease _), _ -> () (* lock op, not data *)
            | Ecall (f, _), Types.Call (_, args, _) ->
              (* re-instantiate with the true position *)
              let s = Option.get (lookup f) in
              let inst =
                Ip.instantiate s ~callee:f ~args:(args_av st args) ~bi ~ii
              in
              List.iter
                (fun (a : Ip.access) ->
                  accesses :=
                    { a with locks = union a.locks !ls.must } :: !accesses)
                inst.Ip.s_accesses
            | _, Types.Load (_, base, off) ->
              accesses :=
                { Ip.kind = Ip.Read; place = Ta.place_of st.(base) ~disp:off;
                  locks = !ls.must; bi; ii; path = "" }
                :: !accesses
            | _, Types.Store (base, off, _) ->
              accesses :=
                { Ip.kind = Ip.Write; place = Ta.place_of st.(base) ~disp:off;
                  locks = !ls.must; bi; ii; path = "" }
                :: !accesses
            | _, (Types.Atomic_rmw (_, _, base, off, _) | Types.Cas (_, base, off, _, _)) ->
              accesses :=
                { Ip.kind = Ip.Rmw; place = Ta.place_of st.(base) ~disp:off;
                  locks = !ls.must; bi; ii; path = "" }
                :: !accesses
            | _ -> ());
            ls := apply_effect !ls eff);
        match blk.term with
        | Types.Ret _ ->
          let out =
            match solved.outb.(bi) with
            | Some ls -> ls
            | None -> { must = []; may = []; rel = [] }
          in
          may_exit := union !may_exit out.may;
          rel_exit :=
            Some
              (match !rel_exit with
              | None -> out.rel
              | Some r -> inter r out.rel)
        | _ -> ()
      end)
    fn.blocks;
  {
    r_accesses = List.rev !accesses;
    r_may_exit = !may_exit;
    r_rel_exit = Option.value ~default:[] !rel_exit;
    r_lock_objs = lock_objs;
  }

(* The [Interproc] client: summarize a callee (no tid in scope). *)
let summarize ~lookup (fn : Prog.func) : Ip.summary =
  let r = analyze ~lookup fn in
  {
    Ip.s_accesses = r.r_accesses;
    s_acquired = r.r_may_exit;
    s_released = r.r_rel_exit;
    s_conservative = false;
  }

(* ---- SPMD entry convention ---- *)

(** SPMD programs in this repository enter a unary function named
    ["worker"] taking the thread id ([W_parallel.scaffold],
    [Multi.create]); its presence is what arms the race tier. *)
let spmd_entry (p : Prog.t) : string option =
  match Prog.find_func p "worker" with
  | Some fn when fn.nparams = 1 -> Some "worker"
  | _ -> None

(* ---- findings ---- *)

type rule =
  | Rdata_race
  | Runlocked_shared_write
  | Rtid_overlap_unprovable
  | Rredundant_atomic

type finding = { f_rule : rule; f_bi : int; f_ii : int; f_msg : string }

let kind_str = function
  | Ip.Read -> "read"
  | Ip.Write -> "write"
  | Ip.Rmw -> "atomic rmw"

let access_str (a : Ip.access) =
  Printf.sprintf "%s of %s at (%d,%d)%s%s" (kind_str a.kind)
    (Ta.place_to_string a.place) a.bi a.ii
    (if a.path = "" then "" else Printf.sprintf " [via %s]" a.path)
    (match a.locks with
    | [] -> ""
    | ls ->
      Printf.sprintf " holding {%s}"
        (String.concat ", " (List.map Ta.place_to_string ls)))

(** Classify every cross-thread conflicting access pair of [worker].
    Self-pairs are included: a single static site executes in all
    threads, so it conflicts with its own image in another thread
    unless its footprint is tid-disjoint. *)
let check (p : Prog.t) ~worker : finding list =
  let summaries = Ip.summaries ~summarize p in
  let wfn = Prog.func_exn p worker in
  let r = analyze ~lookup:(Hashtbl.find_opt summaries) ~tid_param:0 wfn in
  let invalid = r.r_may_exit in
  let valid_lock l = Ta.exact_place l && not (List.mem l invalid) in
  let accesses = Array.of_list r.r_accesses in
  let findings = ref [] in
  let emit f_rule ~bi ~ii fmt =
    Printf.ksprintf
      (fun f_msg -> findings := { f_rule; f_bi = bi; f_ii = ii; f_msg } :: !findings)
      fmt
  in
  let n = Array.length accesses in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let a = accesses.(i) and b = accesses.(j) in
      let both k = a.Ip.kind = k && b.Ip.kind = k in
      if (not (both Ip.Read)) && not (both Ip.Rmw) then begin
        match Ta.cross_thread a.place b.place with
        | Ta.Disjoint -> ()
        | verdict ->
          if
            not
              (List.exists
                 (fun l -> valid_lock l && List.mem l b.Ip.locks)
                 a.Ip.locks)
          then begin
            let overlap_str =
              match verdict with
              | Ta.Overlap -> "overlap across threads"
              | _ -> "cannot be proven disjoint across threads"
            in
            if Ta.tid_dependent a.place || Ta.tid_dependent b.place then
              emit Rtid_overlap_unprovable ~bi:a.bi ~ii:a.ii
                "tid-indexed footprints %s: %s vs %s" overlap_str
                (access_str a) (access_str b)
            else if (a.kind = Ip.Rmw) <> (b.kind = Ip.Rmw) then
              emit Rdata_race ~bi:a.bi ~ii:a.ii
                "mixed atomic/plain accesses to one location (%s): %s vs %s"
                overlap_str (access_str a) (access_str b)
            else if a.locks = [] && b.locks = [] then
              emit Runlocked_shared_write ~bi:a.bi ~ii:a.ii
                "unsynchronized shared accesses (%s): %s vs %s" overlap_str
                (access_str a) (access_str b)
            else begin
              let broken =
                List.filter (fun l -> List.mem l invalid) (a.locks @ b.locks)
              in
              match broken with
              | l :: _ ->
                emit Rdata_race ~bi:a.bi ~ii:a.ii
                  "lock %s is acquired but may never be released (held at \
                   worker exit), so it proves no exclusion: %s vs %s"
                  (Ta.place_to_string l) (access_str a) (access_str b)
              | [] ->
                emit Rdata_race ~bi:a.bi ~ii:a.ii
                  "no common lock protects the conflicting accesses (%s): %s \
                   vs %s"
                  overlap_str (access_str a) (access_str b)
            end
          end
      end
    done
  done;
  (* redundant-atomic lint: an atomic whose footprint is provably
     thread-private needs no atomicity *)
  Array.iteri
    (fun i (a : Ip.access) ->
      ignore i;
      if
        a.kind = Ip.Rmw
        && (not (Hashtbl.mem r.r_lock_objs a.place))
        && Ta.cross_thread a.place a.place = Ta.Disjoint
        && Array.for_all
             (fun (b : Ip.access) ->
               b == a || Ta.cross_thread a.place b.Ip.place = Ta.Disjoint)
             accesses
      then
        emit Rredundant_atomic ~bi:a.bi ~ii:a.ii
          "atomic rmw on a provably thread-private word %s — plain accesses \
           suffice"
          (Ta.place_to_string a.place))
    accesses;
  (* one finding per (rule, site pair) is already guaranteed; sort for
     deterministic output *)
  List.sort_uniq compare (List.rev !findings)
