(** Core IR types.

    The IR is a register machine over native OCaml integers (63-bit two's
    complement — documented as the machine word of this IR; using the
    native int keeps register files and memory pages unboxed, which the
    interpreter's throughput depends on). It is deliberately shaped
    like the subset of LLVM that the cWSP compiler passes care about:
    loads/stores with base+displacement addressing, calls, atomics and
    fences (synchronization points), plus the two instruction kinds the
    cWSP compiler *inserts* — region boundaries and register checkpoints.

    Functions own an unbounded set of virtual registers (an abstraction of
    the architectural register file plus spill slots); the paper's
    "architectural registers" map onto these directly for checkpointing
    purposes. *)

type reg = int

type binop =
  | Add
  | Sub
  | Mul
  | Div   (* signed; division by zero yields 0, as a total semantics *)
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Lshr
  | Ashr

type cmpop = Eq | Ne | Lt | Le | Gt | Ge

type operand = Reg of reg | Imm of int

(** Label of a basic block within its function (index into [Func.blocks]). *)
type label = int

type instr =
  | Bin of binop * reg * operand * operand  (** dst <- a op b *)
  | Cmp of cmpop * reg * operand * operand  (** dst <- (a cmp b) ? 1 : 0 *)
  | Mov of reg * operand
  | La of reg * string                      (** dst <- address of global *)
  | Load of reg * reg * int                 (** dst <- mem[base + off] *)
  | Store of reg * int * operand            (** mem[base + off] <- src *)
  | Call of string * operand list * reg option
  | Atomic_rmw of binop * reg * reg * int * operand
      (** dst <- mem[base+off]; mem[base+off] <- dst op src; sync point *)
  | Cas of reg * reg * int * operand * operand
      (** dst <- old; if old = expected then mem <- desired; sync point *)
  | Fence
  | Flush of reg * int                      (** write the cache line of mem[base+off]
                                                back to NVM (clwb-like); async *)
  | Pfence                                  (** persist fence (sfence-like): pending
                                                flushes become durable; not a
                                                region-ending synchronization *)
  | Ckpt of reg                             (** compiler-inserted register checkpoint *)
  | Boundary of int                         (** compiler-inserted region boundary; id
                                                indexes per-function recovery metadata *)

type term =
  | Jmp of label
  | Br of reg * label * label   (** if reg <> 0 then ifso else ifnot *)
  | Ret of operand option

(** Registers read by an instruction. *)
let uses_of_operand = function Reg r -> [ r ] | Imm _ -> []

let uses = function
  | Bin (_, _, a, b) | Cmp (_, _, a, b) -> uses_of_operand a @ uses_of_operand b
  | Mov (_, src) -> uses_of_operand src
  | La _ -> []
  | Load (_, base, _) -> [ base ]
  | Store (base, _, src) -> base :: uses_of_operand src
  | Call (_, args, _) -> List.concat_map uses_of_operand args
  | Atomic_rmw (_, _, base, _, src) -> base :: uses_of_operand src
  | Cas (_, base, _, e, d) -> (base :: uses_of_operand e) @ uses_of_operand d
  | Fence -> []
  | Flush (base, _) -> [ base ]
  | Pfence -> []
  | Ckpt r -> [ r ]
  | Boundary _ -> []

(** Register written by an instruction, if any. *)
let def = function
  | Bin (_, dst, _, _) | Cmp (_, dst, _, _) | Mov (dst, _) | La (dst, _)
  | Load (dst, _, _) | Atomic_rmw (_, dst, _, _, _) | Cas (dst, _, _, _, _) ->
    Some dst
  | Call (_, _, ret) -> ret
  | Store _ | Fence | Flush _ | Pfence | Ckpt _ | Boundary _ -> None

let term_uses = function
  | Jmp _ -> []
  | Br (r, _, _) -> [ r ]
  | Ret (Some op) -> uses_of_operand op
  | Ret None -> []

let term_succs = function
  | Jmp l -> [ l ]
  | Br (_, a, b) -> if a = b then [ a ] else [ a; b ]
  | Ret _ -> []

(** Synchronization points end regions (Section IV-A / VIII of the paper).
    [Flush]/[Pfence] are deliberately *not* sync points: they order the
    persist stream, not inter-thread visibility, so the explicit-flush
    compiler may place them inside a region. *)
let is_sync = function
  | Atomic_rmw _ | Cas _ | Fence -> true
  | Bin _ | Cmp _ | Mov _ | La _ | Load _ | Store _ | Call _ | Flush _
  | Pfence | Ckpt _ | Boundary _ -> false

(** Does the instruction write memory? (Checkpoints are stores to the
    dedicated NVM checkpoint area.) *)
let writes_memory = function
  | Store _ | Atomic_rmw _ | Cas _ | Ckpt _ -> true
  | Bin _ | Cmp _ | Mov _ | La _ | Load _ | Call _ | Fence | Flush _
  | Pfence | Boundary _ -> false

let reads_memory = function
  | Load _ | Atomic_rmw _ | Cas _ -> true
  | Bin _ | Cmp _ | Mov _ | La _ | Store _ | Call _ | Fence | Flush _
  | Pfence | Ckpt _ | Boundary _ -> false
