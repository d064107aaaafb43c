(** Tid-affine symbolic value analysis for SPMD workers.

    Every register is approximated as [base + k*tid + [lo, hi]]: a base
    provenance (pure number, a global's address, or an unresolved
    parameter of a summarized callee), an affine coefficient on the
    thread id, and a saturating interval of residual offsets. The point
    of the domain is the cross-thread disjointness question the race
    verifier asks: do two accesses of the shape [base + f(tid)],
    evaluated in *different* threads, ever touch a common 8-byte word?
    Striped layouts ([arr + tid*stripe + bounded]) are provably
    disjoint when the stride covers the residual range; everything the
    domain cannot bound widens to [Top] and stays conservatively
    "maybe overlapping".

    Like [Alias], reasoning is object-bounded: addresses derived from a
    global are assumed to stay inside that global, so accesses to
    different globals never conflict. The dynamic monitor
    ([Cwsp_fuzz.Race_monitor]) cross-checks this premise on executed
    interleavings.

    Interval bounds use [min_int]/[max_int] as -inf/+inf sentinels; any
    arithmetic that could overflow 63-bit ints collapses to [Top]
    rather than wrapping, because machine arithmetic wraps and a wrapped
    value no longer satisfies the affine claim. *)

open Cwsp_ir

let ninf = min_int
let pinf = max_int

type base = Bnum | Bglob of string | Bparam of int

type t = Bot | Top | V of { base : base; k : int; lo : int; hi : int }

let const c = V { base = Bnum; k = 0; lo = c; hi = c }
let at_base base = V { base; k = 0; lo = 0; hi = 0 }

(* Exact 63-bit addition/multiplication; [None] on overflow. *)
let checked_add a b =
  let s = a + b in
  if (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0) then None else Some s

let checked_mul a b =
  if a = 0 || b = 0 then Some 0
  else
    let p = a * b in
    (* [min_int] products are rejected even when exact: [min_int] is the
       -inf sentinel, and a coefficient of [min_int] cannot be negated
       without wrapping (sub_av, exists_mult). *)
    if p / b = a && p <> min_int then Some p else None

let checked_sub a b = if b = min_int then None else checked_add a (-b)

(* Interval-bound addition: infinities absorb, finite overflow fails. *)
let bound_add a b =
  if a = ninf || b = ninf then Some ninf
  else if a = pinf || b = pinf then Some pinf
  else checked_add a b

let equal a b =
  match (a, b) with
  | Bot, Bot | Top, Top -> true
  | V a, V b -> a.base = b.base && a.k = b.k && a.lo = b.lo && a.hi = b.hi
  | _ -> false

(** [join ~widen old new]: least upper bound; with [widen] a bound that
    strictly grows relative to [old] jumps straight to its infinity, so
    loop fixpoints terminate. Bases or coefficients that disagree
    collapse to [Top]. *)
let join ~widen a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Top, _ | _, Top -> Top
  | V va, V vb ->
    if va.base <> vb.base || va.k <> vb.k then Top
    else
      let lo = min va.lo vb.lo and hi = max va.hi vb.hi in
      let lo = if widen && lo < va.lo then ninf else lo in
      let hi = if widen && hi > va.hi then pinf else hi in
      V { va with lo; hi }

(* ---- abstract arithmetic ---- *)

let mk base k lo hi =
  match (lo, hi) with
  | Some lo, Some hi -> V { base; k; lo; hi }
  | _ -> Top

let add_av a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Top, _ | _, Top -> Top
  | V a, V b -> (
    let base =
      match (a.base, b.base) with
      | Bnum, x | x, Bnum -> Some x
      | _ -> None (* pointer + pointer: meaningless *)
    in
    match (base, checked_add a.k b.k) with
    | Some base, Some k -> mk base k (bound_add a.lo b.lo) (bound_add a.hi b.hi)
    | _ -> Top)

let sub_av a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Top, _ | _, Top -> Top
  | V a, V b -> (
    let base =
      match (a.base, b.base) with
      | x, Bnum -> Some x
      | Bglob g1, Bglob g2 when g1 = g2 -> Some Bnum (* pointer difference *)
      | _ -> None
    in
    let neg x = if x = ninf then pinf else if x = pinf then ninf else -x in
    (* [checked_sub], not [checked_add _ (-k)]: negating k = min_int
       wraps and would feed a wrong coefficient to disjointness *)
    match (base, checked_sub a.k b.k) with
    | Some base, Some k ->
      mk base k (bound_add a.lo (neg b.hi)) (bound_add a.hi (neg b.lo))
    | _ -> Top)

(* Scale by an exact constant (the [tid * stride] shape). *)
let scale_av a c =
  match a with
  | Bot -> Bot
  | Top -> Top
  | V a when a.base = Bnum -> (
    if c = 0 then const 0
    else
      match checked_mul a.k c with
      | None -> Top
      | Some k ->
        let sb x =
          if x = ninf then Some (if c > 0 then ninf else pinf)
          else if x = pinf then Some (if c > 0 then pinf else ninf)
          else checked_mul x c
        in
        let l = sb a.lo and h = sb a.hi in
        let lo, hi = if c > 0 then (l, h) else (h, l) in
        mk Bnum k lo hi)
  | V _ -> Top (* scaling a pointer *)

let exact_const = function
  | V { base = Bnum; k = 0; lo; hi } when lo = hi && lo > ninf && hi < pinf ->
    Some lo
  | _ -> None

let mul_av a b =
  match (exact_const a, exact_const b) with
  | Some c, _ -> scale_av b c
  | _, Some c -> scale_av a c
  | _ -> (
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | ( V { base = Bnum; k = 0; lo = l1; hi = h1 },
        V { base = Bnum; k = 0; lo = l2; hi = h2 } )
      when l1 > ninf && h1 < pinf && l2 > ninf && h2 < pinf -> (
      let ps =
        [ checked_mul l1 l2; checked_mul l1 h2; checked_mul h1 l2;
          checked_mul h1 h2 ]
      in
      match ps with
      | [ Some a; Some b; Some c; Some d ] ->
        let lo = min (min a b) (min c d) and hi = max (max a b) (max c d) in
        V { base = Bnum; k = 0; lo; hi }
      | _ -> Top)
    | _ -> Top)

(* Nonnegative-bounded view: [Some hi] when the value is provably in
   [0, hi] with no base/tid component. *)
let nonneg_bound = function
  | V { base = Bnum; k = 0; lo; hi } when lo >= 0 -> Some hi
  | _ -> None

(* Smallest all-ones mask covering [h]: bitwise | / ^ of values in
   [0, h1] x [0, h2] stays within [0, mask h1 lor mask h2]. *)
let pow2_mask h =
  if h = pinf then pinf
  else begin
    let m = ref 1 in
    while !m <= h && !m < max_int / 2 do
      m := (!m * 2) + 1
    done;
    if !m <= h then pinf else !m
  end

let and_av a b =
  (* x land m for m >= 0 lands in [0, m] regardless of x — even a Top
     or tid-dependent x — which is what makes masked striped offsets
     ([(e land mask) * 8]) provable. *)
  match (exact_const a, exact_const b) with
  | Some m, _ when m >= 0 -> (
    match nonneg_bound b with
    | Some h -> V { base = Bnum; k = 0; lo = 0; hi = min m h }
    | None -> V { base = Bnum; k = 0; lo = 0; hi = m })
  | _, Some m when m >= 0 -> (
    match nonneg_bound a with
    | Some h -> V { base = Bnum; k = 0; lo = 0; hi = min m h }
    | None -> V { base = Bnum; k = 0; lo = 0; hi = m })
  | _ -> (
    match (nonneg_bound a, nonneg_bound b) with
    | Some h1, Some h2 -> V { base = Bnum; k = 0; lo = 0; hi = min h1 h2 }
    | _ -> Top)

let orxor_av a b =
  match (nonneg_bound a, nonneg_bound b) with
  | Some h1, Some h2 ->
    let m = if h1 = pinf || h2 = pinf then pinf else pow2_mask h1 lor pow2_mask h2 in
    V { base = Bnum; k = 0; lo = 0; hi = m }
  | _ -> Top

let shl_av a b =
  match exact_const b with
  | Some c when c >= 0 && c < 62 -> scale_av a (1 lsl c)
  | _ -> Top

let shr_av a b =
  match (nonneg_bound a, exact_const b) with
  | Some h, Some c when c >= 0 && c < 62 ->
    V { base = Bnum; k = 0; lo = 0; hi = (if h = pinf then pinf else h asr c) }
  | _ -> Top

let div_av a b =
  match (a, exact_const b) with
  | V { base = Bnum; k = 0; lo; hi }, Some c when c > 0 && lo >= 0 ->
    V { base = Bnum; k = 0; lo = lo / c;
        hi = (if hi = pinf then pinf else hi / c) }
  | _ -> Top

let rem_av a b =
  match exact_const b with
  | Some m when m <> 0 ->
    let mm = abs m - 1 in
    (* OCaml Rem follows the dividend's sign and |result| < |m|, for any
       dividend — even wrapped/unknown ones — so these bounds need no
       precondition. A provably nonnegative dividend (including the
       affine k*tid + [lo>=0] shape, tid >= 0) tightens to [0, m-1]. *)
    let nonneg =
      match a with
      | V { base = Bnum; k; lo; _ } when k >= 0 && lo >= 0 -> true
      | _ -> false
    in
    V { base = Bnum; k = 0; lo = (if nonneg then 0 else -mm); hi = mm }
  | _ -> Top

(* ---- transfer ---- *)

let step (state : t array) (ins : Types.instr) =
  let get = function Types.Reg r -> state.(r) | Types.Imm c -> const c in
  let set d v = state.(d) <- v in
  match ins with
  | Types.Bin (op, d, a, b) -> (
    let x = get a and y = get b in
    match op with
    | Types.Add -> set d (add_av x y)
    | Types.Sub -> set d (sub_av x y)
    | Types.Mul -> set d (mul_av x y)
    | Types.Div -> set d (div_av x y)
    | Types.Rem -> set d (rem_av x y)
    | Types.And -> set d (and_av x y)
    | Types.Or | Types.Xor -> set d (orxor_av x y)
    | Types.Shl -> set d (shl_av x y)
    | Types.Lshr | Types.Ashr -> set d (shr_av x y))
  | Types.Cmp (_, d, _, _) -> set d (V { base = Bnum; k = 0; lo = 0; hi = 1 })
  | Types.Mov (d, src) -> set d (get src)
  | Types.La (d, g) -> set d (at_base (Bglob g))
  | Types.Load (d, _, _) -> set d Top
  | Types.Atomic_rmw (_, d, _, _, _) | Types.Cas (d, _, _, _, _) -> set d Top
  | Types.Call (_, _, Some d) -> set d Top
  | Types.Call (_, _, None)
  | Types.Store _ | Types.Fence | Types.Flush _ | Types.Pfence | Types.Ckpt _
  | Types.Boundary _ -> ()

(** Per-block entry states and the reachability mask: the shared
    register-state sweep ([Dataflow.register_states]) over this domain.
    With [tid_param] the designated parameter is the symbolic thread id
    ([k = 1]); the remaining parameters are opaque [Bparam] bases so
    callee summaries stay substitutable. *)
let block_entry_states ?tid_param (fn : Prog.func) : t array array * bool array =
  let entry =
    Array.init (max 1 fn.nregs) (fun r ->
        if r >= fn.nparams then Bot
        else if tid_param = Some r then V { base = Bnum; k = 1; lo = 0; hi = 0 }
        else at_base (Bparam r))
  in
  Dataflow.register_states { bottom = Bot; equal; join; step } ~entry fn

(* ---- places and cross-thread disjointness ---- *)

type place =
  | Pglob of { g : string; k : int; lo : int; hi : int }
  | Pparam of { p : int; k : int; lo : int; hi : int }
  | Pany

let place_of (av : t) ~disp : place =
  match av with
  | V { base = Bglob g; k; lo; hi } -> (
    match (bound_add lo disp, bound_add hi disp) with
    | Some lo, Some hi -> Pglob { g; k; lo; hi }
    | _ -> Pany)
  | V { base = Bparam p; k; lo; hi } -> (
    match (bound_add lo disp, bound_add hi disp) with
    | Some lo, Some hi -> Pparam { p; k; lo; hi }
    | _ -> Pany)
  | _ -> Pany

let tid_dependent = function
  | Pany -> true
  | Pglob { k; _ } | Pparam { k; _ } -> k <> 0

(** A provably unique word: the only place shapes that can act as a
    lock identity. A [Pparam] word is exact *relative to the argument*
    — inside a callee summary it names one word per call site, and
    [Interproc.subst_place] turns it into a concrete [Pglob] word when
    the summary is instantiated. *)
let exact_place = function
  | Pglob { k = 0; lo; hi; _ } when lo = hi -> true
  | Pparam { k = 0; lo; hi; _ } when lo = hi -> true
  | _ -> false

let place_to_string = function
  | Pany -> "<any>"
  | Pparam { p; k; lo; hi } ->
    Printf.sprintf "param%d+%d*tid+[%s,%s]" p k
      (if lo = ninf then "-inf" else string_of_int lo)
      (if hi = pinf then "+inf" else string_of_int hi)
  | Pglob { g; k; lo; hi } ->
    if k = 0 && lo = hi then Printf.sprintf "%s+%d" g lo
    else
      Printf.sprintf "%s+%d*tid+[%s,%s]" g k
        (if lo = ninf then "-inf" else string_of_int lo)
        (if hi = pinf then "+inf" else string_of_int hi)

type verdict = Disjoint | Overlap | Unknown

(* Is there an integer t >= tmin with k*t in [a, b]?  (k <> 0, finite
   window; an empty window has no solution.) [None] when the
   normalization itself would wrap — [min_int] cannot be negated — so
   the caller answers Unknown rather than risking a wrapped Disjoint. *)
let exists_mult k (a, b) ~tmin =
  if b < a then Some false
  else if k = min_int || a = min_int || b = min_int then None
  else
    let k, a, b = if k > 0 then (k, a, b) else (-k, -b, -a) in
    (* divisions written via [mod] so they cannot overflow (the additive
       forms [x + y - 1] wrap for x near max_int) *)
    let floor_div x y = if x >= 0 || x mod y = 0 then x / y else (x / y) - 1 in
    let ceil_div x y = if x <= 0 || x mod y = 0 then x / y else (x / y) + 1 in
    let tlo = max tmin (ceil_div a k) in
    Some (tlo <= floor_div b k)

let finite lo hi = lo > ninf && hi < pinf

(** Can accesses at [p1] (in thread t1) and [p2] (in thread t2 <> t1)
    touch a common 8-byte word, quantified over all t1 <> t2 >= 0?
    Every static site runs in *all* threads, so a site must also be
    checked against itself ([cross_thread p p]). *)
let cross_thread p1 p2 : verdict =
  match (p1, p2) with
  | Pany, _ | _, Pany -> Unknown
  | Pparam _, _ | _, Pparam _ -> Unknown
  | Pglob a, Pglob b ->
    if a.g <> b.g then Disjoint
    else
      (* 8-byte word footprints: [lo, hi+7]; a finite upper bound that
         cannot be widened without wrapping saturates to +inf, which
         downstream turns into Unknown/Overlap, never Disjoint *)
      let sat7 h =
        if h = pinf then pinf
        else match checked_add h 7 with Some v -> v | None -> pinf
      in
      let ahi = sat7 a.hi in
      let bhi = sat7 b.hi in
      if a.k = 0 && b.k = 0 then
        if a.lo <= bhi && b.lo <= ahi then Overlap else Disjoint
      else if a.k = b.k then begin
        if not (finite a.lo ahi && finite b.lo bhi) then Unknown
        else
          (* footprints collide iff k*d ∈ [a.lo-bhi, ahi-b.lo] for some
             thread gap d = t2-t1 <> 0; by symmetry d >= 1 suffices
             after also checking the mirrored window. Window bounds go
             through checked subtraction: a wrapped window could answer
             a false Disjoint. *)
          match
            ( checked_sub a.lo bhi, checked_sub ahi b.lo,
              checked_sub b.lo ahi, checked_sub bhi a.lo )
          with
          | Some w1l, Some w1h, Some w2l, Some w2h -> (
            match
              ( exists_mult a.k (w1l, w1h) ~tmin:1,
                exists_mult a.k (w2l, w2h) ~tmin:1 )
            with
            | Some e1, Some e2 -> if e1 || e2 then Overlap else Disjoint
            | _ -> Unknown)
          | _ -> Unknown
      end
      else if a.k = 0 || b.k = 0 then begin
        (* fixed window vs a striped family: exact, since the striped
           side's thread ranges over all t >= 0 and the fixed side is
           thread-independent (any other thread hits it). *)
        let flo, fhi, sk, slo, shi =
          if a.k = 0 then (a.lo, ahi, b.k, b.lo, bhi)
          else (b.lo, bhi, a.k, a.lo, ahi)
        in
        if not (finite flo fhi && finite slo shi) then Unknown
        else
          match (checked_sub flo shi, checked_sub fhi slo) with
          | Some wl, Some wh -> (
            match exists_mult sk (wl, wh) ~tmin:0 with
            | Some true -> Overlap
            | Some false -> Disjoint
            | None -> Unknown)
          | _ -> Unknown
      end
      else begin
        (* distinct nonzero strides: no closed form here; scan small
           thread pairs for a provable overlap, otherwise give up. This
           branch only affects diagnostic classification — Disjoint is
           never claimed — so overflowing candidates are just skipped. *)
        if not (finite a.lo ahi && finite b.lo bhi) then Unknown
        else begin
          let hit = ref false in
          for t1 = 0 to 16 do
            for t2 = 0 to 16 do
              if t1 <> t2 then begin
                match
                  ( checked_mul a.k t1, checked_mul b.k t2 )
                with
                | Some o1, Some o2 -> (
                  match
                    ( checked_add a.lo o1, checked_add bhi o2,
                      checked_add b.lo o2, checked_add ahi o1 )
                  with
                  | Some alo1, Some bhi2, Some blo2, Some ahi1 ->
                    if alo1 <= bhi2 && blo2 <= ahi1 then hit := true
                  | _ -> ())
                | _ -> ()
              end
            done
          done;
          if !hit then Overlap else Unknown
        end
      end
