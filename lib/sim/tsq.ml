(** Bounded FIFO timestamp queue — the simulator's workhorse.

    Hardware queues (WPQ, redo buffers, write buffers) are modeled as a
    single-server FIFO with [size] slots: an item becoming ready at time
    [r] is admitted once a slot is free (backpressure), then completes
    after the in-order service of everything ahead of it. Only
    timestamps are stored, which is what makes replaying a trace through
    dozens of configurations cheap.

    The record keeps every float in a flat [float array] ([fs]) rather
    than in mutable float fields: OCaml boxes each assignment to a float
    field of a mixed record, and [push_u] runs once per store event
    across ~1700 simulation points. [push_u]/[admit]/[last_completion]
    together are the allocation-free interface the engines use; [push]
    is the tupled convenience wrapper. *)

type t = {
  size : int;
  completions : float array; (* ring of the last [size] completion times *)
  mutable count : int;       (* total items ever pushed *)
  fs : float array;          (* 0 = last completion; 1 = admit of last push *)
}

let create ~size =
  if size <= 0 then invalid_arg "Tsq.create: size must be positive";
  { size; completions = Array.make size 0.0; count = 0; fs = Array.make 2 0.0 }

(* Float.max for the NaN-free timestamp domain (ties keep [a], exactly
   as [Float.max] does). *)
let[@inline] fmax (a : float) (b : float) = if b > a then b else a

(** Allocation-free push: admit time is [admit t], completion time is
    [last_completion t]. [admit >= ready] is when a slot frees up
    (equals [ready] unless the queue is full of unfinished work), and
    [completion = max(admit, previous completion) + service]. *)
let[@inline always] push_u t ~ready ~service =
  let ring = t.completions in
  let slot = t.count mod t.size in
  let admit =
    if t.count < t.size then ready
    else
      (* slot of the item [size] pushes ago must have completed *)
      fmax ready (Array.unsafe_get ring slot)
  in
  let completion = fmax admit (Array.unsafe_get t.fs 0) +. service in
  Array.unsafe_set ring slot completion;
  t.count <- t.count + 1;
  Array.unsafe_set t.fs 0 completion;
  Array.unsafe_set t.fs 1 admit

(** [push t ~ready ~service] returns [(admit, completion)]. *)
let push t ~ready ~service =
  push_u t ~ready ~service;
  (t.fs.(1), t.fs.(0))

let last_completion t = Array.unsafe_get t.fs 0

(** Admit time of the most recent [push_u]/[push]. *)
let admit t = Array.unsafe_get t.fs 1

(** Raw result cells (0 = last completion, 1 = last admit). *)
let times t = t.fs

(** Entries still in flight (completion after [now]); capped at [size].
    Completions never decrease in push order ([completion = max(admit,
    previous) + service] with [service >= 0]), so the entries in flight
    are a suffix of the ring taken oldest first: binary-search where it
    starts. *)
let occupancy t ~now =
  let n, oldest =
    if t.count < t.size then (t.count, 0) else (t.size, t.count mod t.size)
  in
  (* first position, oldest first, whose completion is after [now] *)
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let slot = oldest + mid in
    let slot = if slot >= t.size then slot - t.size else slot in
    if Array.unsafe_get t.completions slot > now then hi := mid
    else lo := mid + 1
  done;
  n - !lo
