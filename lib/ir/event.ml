(** Commit events, packed into a single native int each.

    The timing simulator replays millions of events per configuration, so
    the encoding is allocation-free: low 4 bits = kind tag, remaining bits
    = payload (a byte address for memory events, the static boundary id for
    boundary events, 0 otherwise). *)

type kind =
  | Alu       (** any non-memory instruction, including branches/calls *)
  | Load
  | Store
  | Ckpt      (** register checkpoint: a store to the NVM checkpoint area *)
  | Boundary  (** region boundary commit *)
  | Fence
  | Atomic    (** atomic RMW / CAS: sync point that reads and writes memory *)
  | Flush     (** clwb-like line writeback; payload = byte address *)
  | Pfence    (** persist fence: drains pending flushes *)

let tag_of_kind = function
  | Alu -> 0 | Load -> 1 | Store -> 2 | Ckpt -> 3 | Boundary -> 4 | Fence -> 5
  | Atomic -> 6 | Flush -> 7 | Pfence -> 8

let kind_of_tag = function
  | 0 -> Alu | 1 -> Load | 2 -> Store | 3 -> Ckpt | 4 -> Boundary | 5 -> Fence
  | 6 -> Atomic | 7 -> Flush | 8 -> Pfence
  | t -> invalid_arg (Printf.sprintf "Event.kind_of_tag: %d" t)

let encode kind ~payload = (payload lsl 4) lor tag_of_kind kind

let kind ev = kind_of_tag (ev land 15)
let payload ev = ev lsr 4

(* Fast-path tags for the simulator's hot loop (avoids variant match). *)
let tag ev = ev land 15
let tag_alu = 0
let tag_load = 1
let tag_store = 2
let tag_ckpt = 3
let tag_boundary = 4
let tag_fence = 5
let tag_atomic = 6
let tag_flush = 7
let tag_pfence = 8

let to_string ev =
  match kind ev with
  | Alu -> "alu"
  | Load -> Printf.sprintf "load  0x%x" (payload ev)
  | Store -> Printf.sprintf "store 0x%x" (payload ev)
  | Ckpt -> Printf.sprintf "ckpt  0x%x" (payload ev)
  | Boundary -> Printf.sprintf "boundary #%d" (payload ev)
  | Fence -> "fence"
  | Atomic -> Printf.sprintf "atomic 0x%x" (payload ev)
  | Flush -> Printf.sprintf "flush 0x%x" (payload ev)
  | Pfence -> "pfence"
