(** Kernel combinators for synthetic workloads.

    Each of the 38 applications in the registry composes a few of these
    building blocks with per-application footprints, strides, and
    read/write mixes, chosen to match the paper's qualitative
    characterization of that application's memory behaviour (DESIGN.md §2:
    the figures depend on each app's behaviour *class*, not its
    semantics). All combinators emit straight IR through [Builder], so
    the cWSP compiler sees realistic compiled code: register
    accumulators, address arithmetic, loop-carried pointers. *)

open Cwsp_ir
open Builder

let word = 8

(* Simple in-IR xorshift-ish mixing of a register value; cheap ALU body
   filler that also decorrelates addresses. *)
let mix fb v =
  let a = bin fb Xor (Reg v) (Reg (bin fb Lshr (Reg v) (Imm 13))) in
  let b = bin fb Mul (Reg a) (Imm 0x2545F4914F6CDD1D) in
  bin fb And (Reg b) (Imm max_int)

(* d ALU instructions of filler work over [v]; returns the result reg. *)
let alu_chain fb v d =
  let r = ref v in
  for i = 1 to d do
    r := bin fb Add (Reg !r) (Imm i)
  done;
  !r

(** Sequential sweep: for i in [0, n): read a[i*stride_words], accumulate,
    and store to b every [write_every] iterations (b = a if [in_place]).
    [alu] pads the loop body with compute. *)
let sweep fb ~src ~dst ~n ~stride_words ~write_every ~alu =
  let acc = imm fb 0 in
  let _i =
    loop fb ~from:(Imm 0) ~below:(Imm n) (fun i ->
        let idx = bin fb Mul (Reg i) (Imm (stride_words * word)) in
        let a = bin fb Add (Reg src) (Reg idx) in
        let v = load fb a 0 in
        let w = alu_chain fb v alu in
        emit fb (Bin (Add, acc, Reg acc, Reg w));
        if write_every > 0 then begin
          let m = bin fb Rem (Reg i) (Imm write_every) in
          let z = cmp fb Eq (Reg m) (Imm 0) in
          if_ fb z
            ~then_:(fun () ->
              let d = bin fb Add (Reg dst) (Reg idx) in
              store fb d 0 (Reg w))
            ~else_:(fun () -> ())
        end)
  in
  acc

(** Unrolled in-place sweep: each iteration reads [unroll] elements, does
    [alu] work on each, then writes them all back — the loads-then-stores
    schedule a compiler produces for unrolled update loops. All the
    load/store antidependence pairs of a group overlap, so the hitting-set
    cutter places a *single* region boundary per group (Section IV-A):
    regions carry [unroll] stores over a realistically long body. *)
let sweep_wide fb ~arr ~n_groups ~stride_words ~alu ~unroll =
  let acc = imm fb 0 in
  let _i =
    loop fb ~from:(Imm 0) ~below:(Imm n_groups) (fun i ->
        let base = bin fb Mul (Reg i) (Imm (unroll * stride_words * word)) in
        let addr0 = bin fb Add (Reg arr) (Reg base) in
        let values =
          List.init unroll (fun u ->
              let v = load fb addr0 (u * stride_words * word) in
              let w = alu_chain fb v alu in
              emit fb (Bin (Add, acc, Reg acc, Reg w));
              w)
        in
        List.iteri
          (fun u w -> store fb addr0 (u * stride_words * word) (Reg w))
          values)
  in
  acc

(** 3-point stencil: dst[i] = src[i-1] + src[i] + src[i+1] over points
    spaced [stride_words] apart. One store per iteration, three loads,
    classic HPC shape; large strides turn it memory-intensive. *)
let stencil fb ~src ~dst ~n ?(stride_words = 1) ~alu () =
  let _i =
    loop fb ~from:(Imm 1) ~below:(Imm (n - 1)) (fun i ->
        let off = bin fb Mul (Reg i) (Imm (stride_words * word)) in
        let s = bin fb Add (Reg src) (Reg off) in
        let a = load fb s (-word) in
        let b = load fb s 0 in
        let c = load fb s word in
        let t = bin fb Add (Reg a) (Reg b) in
        let t = bin fb Add (Reg t) (Reg c) in
        let t = alu_chain fb t alu in
        let d = bin fb Add (Reg dst) (Reg off) in
        store fb d 0 (Reg t))
  in
  ()

(** Random access: [iters] iterations of idx = next_random mod n;
    read a[idx]; write back (read-modify-write) every [write_every]
    iterations. Randomness comes from an in-register LCG so the loop body
    stays self-contained (one region per iteration). *)
let random_access fb ~arr ~n_words ~iters ~write_every ~alu ?hot_words () =
  let seed = imm fb 88172645463325252 in
  let acc = imm fb 0 in
  let _i =
    loop fb ~from:(Imm 0) ~below:(Imm iters) (fun i ->
        (* xorshift-style step kept in a register (loop-carried) *)
        let s1 = bin fb Xor (Reg seed) (Reg (bin fb Shl (Reg seed) (Imm 13))) in
        let s2 = bin fb Xor (Reg s1) (Reg (bin fb Lshr (Reg s1) (Imm 7))) in
        let s3 = bin fb And (Reg s2) (Imm max_int) in
        emit fb (Mov (seed, Reg s3));
        let idx =
          match hot_words with
          | None -> bin fb Rem (Reg s3) (Imm n_words)
          | Some hw ->
            (* 3/4 of accesses hit a hot subset (table reuse), the rest
               roam the whole structure *)
            let sel = bin fb And (Reg (bin fb Lshr (Reg s3) (Imm 3))) (Imm 3) in
            let cold = cmp fb Eq (Reg sel) (Imm 0) in
            let idx = fresh fb in
            if_ fb cold
              ~then_:(fun () ->
                emit fb (Bin (Rem, idx, Reg s3, Imm n_words)))
              ~else_:(fun () ->
                emit fb (Bin (Rem, idx, Reg s3, Imm hw)));
            idx
        in
        let off = bin fb Mul (Reg idx) (Imm word) in
        let a = bin fb Add (Reg arr) (Reg off) in
        let v = load fb a 0 in
        let w = alu_chain fb v alu in
        emit fb (Bin (Add, acc, Reg acc, Reg w));
        if write_every > 0 then begin
          let m = bin fb Rem (Reg i) (Imm write_every) in
          let z = cmp fb Eq (Reg m) (Imm 0) in
          if_ fb z
            ~then_:(fun () -> store fb a 0 (Reg w))
            ~else_:(fun () -> ())
        end)
  in
  acc

(** Histogram / counting: bins[key]++ for [iters] keys — the
    load-increment-store creates a genuine memory antidependence each
    iteration, exercising the hitting-set cutter. *)
let histogram fb ~bins ~n_bins ~iters ?(alu = 5) () =
  let seed = imm fb 123456789 in
  let _i =
    loop fb ~from:(Imm 0) ~below:(Imm iters) (fun _i ->
        let s = mix fb seed in
        emit fb (Mov (seed, Reg s));
        let key = alu_chain fb s alu in
        let idx = bin fb Rem (Reg key) (Imm n_bins) in
        let a = bin fb Add (Reg bins) (Reg (bin fb Mul (Reg idx) (Imm word))) in
        let v = load fb a 0 in
        store fb a 0 (Reg (bin fb Add (Reg v) (Imm 1))))
  in
  ()

(** Build a linked list of [n] malloc'd nodes, head stored in global
    [head_g]. Node layout: [0]=value, [8]=next, rest = payload
    ([node_bytes] total) — realistic fat nodes so a few thousand of them
    exceed the SRAM caches. *)
let list_build fb ~head_g ~n ?(node_bytes = 128) () =
  let head = la fb head_g in
  let _i =
    loop fb ~from:(Imm 0) ~below:(Imm n) (fun i ->
        let node = call fb "malloc" [ Imm node_bytes ] in
        store fb node 0 (Reg i);
        store fb node (node_bytes - word) (Reg i); (* touch the tail *)
        let old = load fb head 0 in
        store fb node word (Reg old);
        store fb head 0 (Reg node))
  in
  ()

(** Chase the list [rounds] times, summing payloads and rewriting every
    [write_every]-th node's value. *)
let list_chase fb ~head_g ~rounds ~write_every ?(alu = 6) () =
  let head = la fb head_g in
  let acc = imm fb 0 in
  let _r =
    loop fb ~from:(Imm 0) ~below:(Imm rounds) (fun _r ->
        let cur = fresh fb in
        emit fb (Load (cur, head, 0));
        let k = imm fb 0 in
        let loop_head = block fb in
        let body = block fb in
        let exit_l = block fb in
        jmp fb loop_head;
        switch_to fb loop_head;
        let nz = cmp fb Ne (Reg cur) (Imm 0) in
        br fb nz ~ifso:body ~ifnot:exit_l;
        switch_to fb body;
        let v0 = load fb cur 0 in
        let v = alu_chain fb v0 alu in
        emit fb (Bin (Add, acc, Reg acc, Reg v));
        (if write_every > 0 then begin
           let m = bin fb Rem (Reg k) (Imm write_every) in
           let z = cmp fb Eq (Reg m) (Imm 0) in
           if_ fb z
             ~then_:(fun () -> store fb cur 0 (Reg (bin fb Add (Reg v0) (Imm 1))))
             ~else_:(fun () -> ())
         end);
        emit fb (Bin (Add, k, Reg k, Imm 1));
        emit fb (Load (cur, cur, word));
        jmp fb loop_head;
        switch_to fb exit_l)
  in
  acc

(** Transactional update: pick two "accounts", move money under an atomic
    lock — the STAMP/WHISPER shape (critical sections bounded by atomics,
    which are region boundaries and persist-drain points). *)
let transactions fb ~accounts ~n_accounts ~lock_g ~iters ~work ?(think = 12) () =
  let seed = imm fb 362436069 in
  let lock = la fb lock_g in
  let _i =
    loop fb ~from:(Imm 0) ~below:(Imm iters) (fun _i ->
        let s1 = mix fb seed in
        emit fb (Mov (seed, Reg s1));
        let a_idx = bin fb Rem (Reg s1) (Imm n_accounts) in
        let s2 = mix fb seed in
        emit fb (Mov (seed, Reg s2));
        let b_idx = bin fb Rem (Reg s2) (Imm n_accounts) in
        (* acquire: a guarded CAS spin, the [Libc.spin_lock] shape
           written inline — [Cwsp_analysis.Race] only treats a CAS as
           [Cas_acquire] when its result is checked and the failure
           edge retries; a bare fetch-add with the result discarded
           never blocks and would (rightly) certify nothing *)
        let head = block fb in
        let cont = block fb in
        jmp fb head;
        switch_to fb head;
        let old = cas fb lock 0 ~expected:(Imm 0) ~desired:(Imm 1) in
        let got = cmp fb Eq (Reg old) (Imm 0) in
        br fb got ~ifso:cont ~ifnot:head;
        switch_to fb cont;
        let a = bin fb Add (Reg accounts) (Reg (bin fb Mul (Reg a_idx) (Imm word))) in
        let b = bin fb Add (Reg accounts) (Reg (bin fb Mul (Reg b_idx) (Imm word))) in
        let va = load fb a 0 in
        let vb = load fb b 0 in
        let amount = bin fb And (Reg s2) (Imm 255) in
        let va' = alu_chain fb (bin fb Sub (Reg va) (Reg amount)) work in
        store fb a 0 (Reg va');
        store fb b 0 (Reg (bin fb Add (Reg vb) (Reg amount)));
        (* release: on TSO a plain store suffices (x86 unlock idiom); only
           the acquire side is a CAS / sync point. The race tier
           recognizes exactly this shape — a plain store of 0 to a word
           some *guarded* acquire targets — as [Cwsp_analysis.Race]'s
           [Tso_release], so the critical section still certifies; the
           dynamic monitor ([Cwsp_fuzz.Race_monitor]) blesses the same
           store as a release edge only when the storing thread actually
           holds the word's synchronization. Any other value, any other
           word, or a non-holder's store stays an ordinary (checked)
           access. *)
        store fb lock 0 (Imm 0);
        (* non-transactional think time between critical sections; the
           result feeds the next transaction's seed so dead-code
           elimination cannot remove it *)
        let t0 = bin fb Add (Reg s2) (Imm 1) in
        let th = alu_chain fb t0 think in
        emit fb (Mov (seed, Reg (bin fb Xor (Reg seed) (Reg th)))))
  in
  ()

(** Dense mat-vec-ish inner loops: for r in [0, rows): acc = Σ m[r][c]*v[c],
    store acc to out[r]. Bigger bodies, one store per [cols] loads. *)
let matvec fb ~mat ~vec ~out ~rows ~cols =
  let _r =
    loop fb ~from:(Imm 0) ~below:(Imm rows) (fun r ->
        let acc = imm fb 0 in
        let row_off = bin fb Mul (Reg r) (Imm (cols * word)) in
        let row = bin fb Add (Reg mat) (Reg row_off) in
        let _c =
          loop fb ~from:(Imm 0) ~below:(Imm cols) (fun c ->
              let off = bin fb Mul (Reg c) (Imm word) in
              let mv = load fb (bin fb Add (Reg row) (Reg off)) 0 in
              let vv = load fb (bin fb Add (Reg vec) (Reg off)) 0 in
              emit fb (Bin (Add, acc, Reg acc, Reg (bin fb Mul (Reg mv) (Reg vv)))))
        in
        let o = bin fb Add (Reg out) (Reg (bin fb Mul (Reg r) (Imm word))) in
        store fb o 0 (Reg acc))
  in
  ()

(** Block copies through the runtime's memcpy — the h264ref/imagick shape
    (bulk data movement through library code). *)
let block_copies fb ~src ~dst ~blocks ~block_bytes =
  let _i =
    loop fb ~from:(Imm 0) ~below:(Imm blocks) (fun i ->
        let off = bin fb Mul (Reg i) (Imm block_bytes) in
        let s = bin fb Add (Reg src) (Reg off) in
        let d = bin fb Add (Reg dst) (Reg off) in
        let _ = call fb "memcpy" [ Reg d; Reg s; Imm block_bytes ] in
        ())
  in
  ()

(** Random swaps (WHISPER's sps): pick two slots, exchange their values —
    two loads and two stores per iteration, maximally write-dense. *)
let swaps fb ~arr ~n_words ~iters ?(hot_words = 0) () =
  let seed = imm fb 521288629 in
  let pick s =
    (* one index hot (cache-resident working set), the other cold *)
    if hot_words > 0 then bin fb Rem (Reg s) (Imm hot_words)
    else bin fb Rem (Reg s) (Imm n_words)
  in
  let _i =
    loop fb ~from:(Imm 0) ~below:(Imm iters) (fun _i ->
        let s1 = mix fb seed in
        emit fb (Mov (seed, Reg s1));
        let i1 = pick s1 in
        let s2 = mix fb seed in
        emit fb (Mov (seed, Reg s2));
        let i2 = bin fb Rem (Reg s2) (Imm n_words) in
        let a = bin fb Add (Reg arr) (Reg (bin fb Mul (Reg i1) (Imm word))) in
        let b = bin fb Add (Reg arr) (Reg (bin fb Mul (Reg i2) (Imm word))) in
        let va = load fb a 0 in
        let vb = load fb b 0 in
        store fb a 0 (Reg vb);
        store fb b 0 (Reg va))
  in
  ()

(** Write a checksum and emit it through the output intrinsic; every
    workload ends with this so functional equivalence is checkable. *)
let finish fb ~checksum_g value =
  let g = la fb checksum_g in
  store fb g 0 (Reg value);
  call_void fb "__out" [ Reg value ]
