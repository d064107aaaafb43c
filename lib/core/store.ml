(** A mutex-protected memoization table — the result store behind
    [Api]'s caches and the executor's job results.

    Domain-safety contract: [memo] runs the producer {e outside} the
    lock (simulation runs take milliseconds to seconds; serializing them
    would defeat the executor). If two domains race on the same absent
    key, both compute — deterministically producing equal values — and
    the first writer wins, so every later [find_opt]/[memo] observes one
    canonical value. The executor deduplicates jobs up front, making
    such races a non-event in practice.

    Every store counts its [memo] traffic (hits, misses, produce races)
    under the same lock, so cache effectiveness is observable — [Api]
    exposes the per-cache totals and [bench/main.exe] prints them in its
    end-of-run summary. *)

type ('k, 'v) t = {
  mu : Mutex.t;
  tbl : ('k, 'v) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable races : int;
}

(** [memo] traffic totals. [races] counts productions discarded because
    another domain's equal value won the insert. *)
type stats = { hits : int; misses : int; races : int }

let create n =
  { mu = Mutex.create (); tbl = Hashtbl.create n; hits = 0; misses = 0;
    races = 0 }

let find_opt t k = Mutex.protect t.mu (fun () -> Hashtbl.find_opt t.tbl k)

let length t = Mutex.protect t.mu (fun () -> Hashtbl.length t.tbl)

let stats t =
  Mutex.protect t.mu (fun () ->
      { hits = t.hits; misses = t.misses; races = t.races })

(** [lookup t k]: the stored value for [k], counted as a hit, or
    [None], counted as a miss. *)
let lookup t k =
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.tbl k with
      | Some _ as v ->
        t.hits <- t.hits + 1;
        v
      | None ->
        t.misses <- t.misses + 1;
        None)

(** [add t k v] stores [v] unless [k] already has a value, which then
    wins (counted as a race); returns the stored value. *)
let add t k v =
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.tbl k with
      | Some v' ->
        t.races <- t.races + 1;
        v'
      | None ->
        Hashtbl.add t.tbl k v;
        v)

(** [memo t k produce] returns the stored value for [k], computing it
    with [produce] if absent. First writer wins on a race. *)
let memo t k produce =
  match lookup t k with Some v -> v | None -> add t k (produce ())

let reset t =
  Mutex.protect t.mu (fun () ->
      Hashtbl.reset t.tbl;
      t.hits <- 0;
      t.misses <- 0;
      t.races <- 0)
