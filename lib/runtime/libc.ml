(** The crash-consistent runtime library — a miniature glibc written in the
    IR (Section IV-D of the paper: cWSP "introduces a comprehensive
    crash-consistent runtime" by recompiling libc with the cWSP compiler).

    Because these functions are ordinary IR, they are partitioned into
    idempotent regions and checkpointed exactly like user code: a power
    failure inside [malloc] recovers like any other region. The allocator
    is a first-fit free list with block splitting over an [sbrk]-grown
    heap, so workloads exercise real pointer-chasing allocator code paths
    rather than a magic intrinsic. *)

open Cwsp_ir
open Builder

let brk_global = "__brk"
let freelist_global = "__free_list"
let lcg_global = "__lcg_state"

(* Heap block layout: [size (bytes, incl. header) | payload...];
   free blocks additionally use payload word 0 as the next-free pointer. *)
let header_bytes = 8

let add_globals b =
  global b brk_global ~size:8 ~init:[ (0, Cwsp_ir.Layout.heap_base) ] ();
  global b freelist_global ~size:8 ();
  global b lcg_global ~size:8 ~init:[ (0, 0x5DEECE66D) ] ()

(* sbrk(n): returns the old break and advances it by n (8-byte rounded). *)
let add_sbrk b =
  func b "sbrk" ~nparams:1 (fun fb ->
      let n = param fb 0 in
      let rounded = bin fb And (Reg (bin fb Add (Reg n) (Imm 7))) (Imm (lnot 7)) in
      let brk = la fb brk_global in
      let old = load fb brk 0 in
      let nw = bin fb Add (Reg old) (Reg rounded) in
      store fb brk 0 (Reg nw);
      ret fb (Some (Reg old)))

(* malloc(n): first-fit over the free list, splitting when the remainder
   can hold a header plus one word; falls back to sbrk. Returns the
   payload address. *)
let add_malloc b =
  func b "malloc" ~nparams:1 (fun fb ->
      let n = param fb 0 in
      let need =
        bin fb Add
          (Reg (bin fb And (Reg (bin fb Add (Reg n) (Imm 7))) (Imm (lnot 7))))
          (Imm header_bytes)
      in
      let flhead = la fb freelist_global in
      (* walk the free list: prev = &head as a location holding next ptr *)
      let prev = fresh fb in
      emit fb (Mov (prev, Reg flhead));
      let cur = fresh fb in
      emit fb (Load (cur, flhead, 0));
      let loop_head = block fb in
      let found_l = block fb in
      let advance_l = block fb in
      let grow_l = block fb in
      let done_l = block fb in
      let result = fresh fb in
      jmp fb loop_head;
      (* loop: cur = 0 -> grow; fits -> found; else advance *)
      switch_to fb loop_head;
      let is_null = cmp fb Eq (Reg cur) (Imm 0) in
      let after_null = block fb in
      br fb is_null ~ifso:grow_l ~ifnot:after_null;
      switch_to fb after_null;
      let size = load fb cur 0 in
      let fits = cmp fb Ge (Reg size) (Reg need) in
      br fb fits ~ifso:found_l ~ifnot:advance_l;
      (* advance: prev = cur + 8 (the next-pointer slot), cur = *next *)
      switch_to fb advance_l;
      emit fb (Bin (Add, prev, Reg cur, Imm header_bytes));
      emit fb (Load (cur, cur, header_bytes));
      jmp fb loop_head;
      (* found: maybe split, unlink, return payload *)
      switch_to fb found_l;
      let nxt = load fb cur header_bytes in
      let rem = bin fb Sub (Reg size) (Reg need) in
      let can_split = cmp fb Ge (Reg rem) (Imm (header_bytes + 8)) in
      if_ fb can_split
        ~then_:(fun () ->
          (* shrink current block; carve the tail as the allocation *)
          store fb cur 0 (Reg rem);
          let alloc = bin fb Add (Reg cur) (Reg rem) in
          store fb alloc 0 (Reg need);
          emit fb (Bin (Add, result, Reg alloc, Imm header_bytes)))
        ~else_:(fun () ->
          (* take the whole block: unlink from the list *)
          store fb prev 0 (Reg nxt);
          emit fb (Bin (Add, result, Reg cur, Imm header_bytes)));
      jmp fb done_l;
      (* grow: sbrk a fresh block *)
      switch_to fb grow_l;
      let blk = call fb "sbrk" [ Reg need ] in
      store fb blk 0 (Reg need);
      emit fb (Bin (Add, result, Reg blk, Imm header_bytes));
      jmp fb done_l;
      switch_to fb done_l;
      ret fb (Some (Reg result)))

(* free(p): push the block onto the free list. *)
let add_free b =
  func b "free" ~nparams:1 (fun fb ->
      let p = param fb 0 in
      let blk = bin fb Sub (Reg p) (Imm header_bytes) in
      let flhead = la fb freelist_global in
      let old = load fb flhead 0 in
      store fb blk header_bytes (Reg old);
      store fb flhead 0 (Reg blk);
      ret fb None)

(* memcpy(dst, src, n): word-granularity copy; n in bytes (8-aligned). *)
let add_memcpy b =
  func b "memcpy" ~nparams:3 (fun fb ->
      let dst = param fb 0 and src = param fb 1 and n = param fb 2 in
      let words = bin fb Lshr (Reg n) (Imm 3) in
      let _i =
        loop fb ~from:(Imm 0) ~below:(Reg words) (fun i ->
            let off = bin fb Shl (Reg i) (Imm 3) in
            let s = bin fb Add (Reg src) (Reg off) in
            let d = bin fb Add (Reg dst) (Reg off) in
            let v = load fb s 0 in
            store fb d 0 (Reg v))
      in
      ret fb (Some (Reg dst)))

(* memset(dst, v, n) *)
let add_memset b =
  func b "memset" ~nparams:3 (fun fb ->
      let dst = param fb 0 and v = param fb 1 and n = param fb 2 in
      let words = bin fb Lshr (Reg n) (Imm 3) in
      let _i =
        loop fb ~from:(Imm 0) ~below:(Reg words) (fun i ->
            let off = bin fb Shl (Reg i) (Imm 3) in
            let d = bin fb Add (Reg dst) (Reg off) in
            store fb d 0 (Reg v))
      in
      ret fb (Some (Reg dst)))

(* lcg_next(): deterministic pseudo-random source for workloads; the LCG
   state lives in NVM like everything else, so each call is a
   load-modify-store region of its own. *)
let add_lcg b =
  func b "lcg_next" ~nparams:0 (fun fb ->
      let st = la fb lcg_global in
      let s = load fb st 0 in
      let s1 = bin fb Mul (Reg s) (Imm 2862933555777941757) in
      let s2 = bin fb Add (Reg s1) (Imm 3037000493) in
      (* keep it positive: clear the sign bit *)
      let s3 = bin fb And (Reg s2) (Imm max_int) in
      store fb st 0 (Reg s3);
      let out = bin fb Lshr (Reg s3) (Imm 11) in
      ret fb (Some (Reg out)))

(* spin_lock(addr): CAS loop until 0 -> 1 succeeds. Progress is
   guaranteed under the deterministic round-robin scheduler of
   [Cwsp_interp.Multi]. The CAS is a sync point, hence a region boundary
   and a persist-drain point (Section VIII). *)
let add_spin_lock b =
  func b "spin_lock" ~nparams:1 (fun fb ->
      let l = param fb 0 in
      let head = block fb in
      let done_l = block fb in
      jmp fb head;
      switch_to fb head;
      let old = cas fb l 0 ~expected:(Imm 0) ~desired:(Imm 1) in
      let got = cmp fb Eq (Reg old) (Imm 0) in
      br fb got ~ifso:done_l ~ifnot:head;
      switch_to fb done_l;
      ret fb None)

(* spin_unlock(addr): an atomic release. A plain store would suffice on
   TSO for visibility, but cWSP's multi-core recovery argument
   (Section VIII) requires the critical section's stores to be persisted
   before the section is exited — the exit must be a synchronization
   point that drains, or a power failure could roll back one thread's
   section while another thread has already entered it. The crash tests
   in test_mp.ml fail with a plain-store release, which is exactly that
   hazard. *)
let add_spin_unlock b =
  func b "spin_unlock" ~nparams:1 (fun fb ->
      let l = param fb 0 in
      let _ = atomic_rmw fb And l 0 (Imm 0) in
      ret fb None)

(** Add the whole runtime to a program under construction. *)
let add b =
  add_globals b;
  add_sbrk b;
  add_malloc b;
  add_free b;
  add_memcpy b;
  add_memset b;
  add_lcg b;
  add_spin_lock b;
  add_spin_unlock b

(** Names of the runtime functions, for reports and tests. *)
let function_names =
  [ "sbrk"; "malloc"; "free"; "memcpy"; "memset"; "lcg_next"; "spin_lock";
    "spin_unlock" ]
