(* What cwspbench needs from a workload. Every pass is closed-loop on
   one domain: the next op starts when the previous one returns. *)

type t = {
  name : string;
  setup_reps : int;
      (** timed set-ups before every untraced pass, which runs on the
          last; spread over the run, so the fastest is taken *)
  setup : seed:int -> unit;
  pass : unit -> int;  (** one untraced pass; returns the ops it ran *)
  check : unit -> int;
      (** check the last pass's outputs and work counts (untimed);
          returns the ops that failed *)
  cleanup : unit -> unit;
      (** untimed, before every set-up: drops what earlier passes and
          set-ups left *)
  traced_pass : unit -> int;  (** the same work, inside layer spans *)
  layers : unit -> unit;
      (** after the traced passes: extra checks that need the traced
          run, and the per-layer metrics *)
}
