(** Open-addressing int -> float map for the engine's hot per-address
    state (line persist times, WPQ drain completions).

    [Hashtbl] costs a polymorphic hash plus an allocated [Some] on every
    probe; this map stores keys and values in flat arrays (values in an
    unboxed float array), probes linearly from a multiplicative hash and
    allocates only when growing. Keys must be non-negative (addresses and
    line numbers are); -1 is the empty-slot sentinel. *)

type t = {
  mutable keys : int array;   (* -1 = empty *)
  mutable vals : float array;
  mutable mask : int;         (* capacity - 1; capacity is a power of 2 *)
  mutable count : int;
}

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

let create n =
  let cap = pow2 (max 16 (2 * n)) 16 in
  { keys = Array.make cap (-1); vals = Array.make cap 0.0; mask = cap - 1; count = 0 }

(* Fibonacci hashing: odd multiplier spreads consecutive addresses. *)
let[@inline] slot t k = (k * 0x2545F4914F6CDD1D) land t.mask

let rec probe keys mask k i =
  let key = Array.unsafe_get keys i in
  if key = k || key = -1 then i else probe keys mask k ((i + 1) land mask)

(** [find_def t k def] is the value bound to [k], or [def]. *)
let[@inline always] find_def t k def =
  let i = probe t.keys t.mask k (slot t k) in
  if Array.unsafe_get t.keys i = k then Array.unsafe_get t.vals i else def

let grow t =
  let keys = t.keys and vals = t.vals in
  let cap = 2 * (t.mask + 1) in
  t.keys <- Array.make cap (-1);
  t.vals <- Array.make cap 0.0;
  t.mask <- cap - 1;
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let j = probe t.keys t.mask k (slot t k) in
        t.keys.(j) <- k;
        t.vals.(j) <- vals.(i)
      end)
    keys

(** Bind [k] to [v], replacing any previous binding. *)
let[@inline always] put t k v =
  let i = probe t.keys t.mask k (slot t k) in
  if Array.unsafe_get t.keys i = k then Array.unsafe_set t.vals i v
  else begin
    Array.unsafe_set t.keys i k;
    Array.unsafe_set t.vals i v;
    t.count <- t.count + 1;
    (* load factor 1/2 keeps probe chains short *)
    if 2 * t.count > t.mask then grow t
  end

let length t = t.count

(** When the table is at least a quarter full, drop every binding whose
    value is [<= floor]. The capacity stays: a caller that prunes below
    a rising floor keeps the table from growing. *)
let prune t ~floor =
  if 4 * t.count > t.mask then begin
    let keep = ref [] in
    Array.iteri
      (fun i k ->
        if k >= 0 && t.vals.(i) > floor then keep := (k, t.vals.(i)) :: !keep)
      t.keys;
    Array.fill t.keys 0 (t.mask + 1) (-1);
    t.count <- 0;
    List.iter (fun (k, v) -> put t k v) !keep
  end
