(** Delta-debugging auto-minimization of counterexample programs.

    Greedy fixpoint over three reduction phases — drop whole functions,
    drop globals, ddmin (chunked binary reduction) over each function's
    flat instruction list, plus a terminator-straightening pass that
    collapses branches so dead loop bodies become deletable. Every
    candidate must pass [Validate.check] and the caller's predicate; the
    predicate is expected to be deterministic and exception-safe (the
    [Oracle.reproduces] predicates are).

    [budget] caps predicate evaluations (default 3000), making worst-case
    minimization time a campaign parameter rather than a hazard. When
    tracing ([Obs.on]), the whole minimization is one [minimize] span
    (category [fuzz]). *)

open Cwsp_ir

val minimize : ?budget:int -> pred:(Prog.t -> bool) -> Prog.t -> Prog.t
