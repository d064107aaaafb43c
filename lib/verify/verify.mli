(** Top-level driver: runs every checker family applicable to the
    compile configuration and returns the combined diagnostics. *)

open Cwsp_compiler

(** All diagnostics of a compiled program. [sem] (default [true])
    additionally runs the semantic tier ([Sem_check]): symbolic
    evaluation of every recovery slice against the checkpoint-slot
    state its boundary observes. *)
val run : ?sem:bool -> Pipeline.compiled -> Diag.t list

(** Error-severity diagnostics only. *)
val errors : Diag.t list -> Diag.t list

(** Deduplicate identical diagnostics and sort the rest into the
    stable report order (rule, func, block, instr). *)
val normalize : Diag.t list -> Diag.t list

(** Distinct (rule-name, severity-name) pairs that fired, sorted — the
    fuzzer's coverage-cell view of a verification run. *)
val fired : Diag.t list -> (string * string) list

(** Render one diagnostic per line, normalized ({!normalize}). *)
val report : Diag.t list -> string

(** Render the normalized diagnostics as a JSON array of records
    ([rule] / [severity] / [func] / [block] / [instr] / [message]), one
    compact record per line. *)
val report_json : Diag.t list -> string

(** Raise [Failure] with a rendered report if [run] yields any error. *)
val check_exn : Pipeline.compiled -> unit

(** Install [check_exn] as the pipeline's post-compile hook, so every
    [Pipeline.compile] in the process verifies its own output. *)
val install_pipeline_hook : unit -> unit
