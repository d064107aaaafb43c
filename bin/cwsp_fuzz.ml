(** cwsp-fuzz — coverage-guided crash-consistency fuzzing campaign.

    Generates and mutates IR programs, pushes each through the full
    pipeline (static verifier, crash-recovery sweep at every
    inter-boundary interval, adversarial fault classes, explicit-mode
    sweep, dynamic race monitor) and keeps whatever lights up new
    coverage. Findings — compiler crashes, non-race static rejections,
    fault escapes, and verifier escapes (statically certified programs
    that dynamically diverge) — are deduplicated, auto-minimized and
    persisted under the campaign directory.

    The campaign is resumable and shardable: state is saved at batch
    boundaries, [--shard i/n] processes the exec indices congruent to
    [i] mod [n], and every exec streams its randomness off the master
    seed and its absolute index, so coverage reports are byte-identical
    at any [--jobs] width and across kill/resume.

    Exit status: 0 clean, 1 findings (2 on usage errors). *)

(* A count option below [least] is a usage error, not a crash. *)
let set_count r name ~least =
  Arg.Int
    (fun n ->
      if n < least then raise (Arg.Bad (Printf.sprintf "%s must be >= %d" name least))
      else r := n)

let () =
  let dir = ref "" in
  let execs = ref 2000 in
  let batch = ref 64 in
  let jobs = ref 1 in
  let shard = ref (0, 1) in
  let master_seed = ref 1 in
  let json_file = ref "" in
  let max_seconds = ref 0.0 in
  let min_budget = ref 3000 in
  let trace = ref "" in
  let metrics = ref "" in
  let parse_shard s =
    match String.split_on_char '/' s with
    | [ i; n ] -> (
      match (int_of_string_opt i, int_of_string_opt n) with
      | Some i, Some n when n > 0 && i >= 0 && i < n -> shard := (i, n)
      | _ -> raise (Arg.Bad ("bad shard " ^ s)))
    | _ -> raise (Arg.Bad ("bad shard " ^ s ^ " (expected i/n)"))
  in
  Arg.parse
    [
      ("--corpus", Arg.Set_string dir, "DIR  campaign directory (required)");
      ( "--execs",
        set_count execs "--execs" ~least:0,
        "N  total exec indices to cover (default 2000)" );
      ( "--batch",
        set_count batch "--batch" ~least:1,
        "N  execs per batch = state-save granularity (default 64)" );
      ("--jobs", Arg.Set_int jobs, "N  evaluate N programs at a time on the domain pool");
      ( "--shard",
        Arg.String parse_shard,
        "i/n  process exec indices congruent to i mod n (default 0/1)" );
      ("--master-seed", Arg.Set_int master_seed, "N  campaign master seed (default 1)");
      ("--json", Arg.Set_string json_file, "FILE  write the JSON coverage report");
      ( "--max-seconds",
        Arg.Set_float max_seconds,
        "S  stop at the next batch boundary after S seconds (resumable)" );
      ( "--minimize-budget",
        Arg.Set_int min_budget,
        "N  predicate evaluations per finding minimization (default 3000)" );
      ( "--trace",
        Arg.Set_string trace,
        "FILE  write a Chrome trace-event JSON profile (per-exec spans)" );
      ("--metrics", Arg.Set_string metrics, "FILE  write flat JSON metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "cwsp_fuzz --corpus DIR [--execs N] [--batch N] [--jobs N] [--shard i/n] \
     [--master-seed N] [--max-seconds S] [--json FILE]";
  if !dir = "" then begin
    prerr_endline "cwsp-fuzz: --corpus DIR is required";
    exit 2
  end;
  Cwsp_obs.Obs.configure
    ?trace:(if !trace = "" then None else Some !trace)
    ?metrics:(if !metrics = "" then None else Some !metrics)
    ();
  let params =
    {
      Cwsp_fuzz.Campaign.p_dir = !dir;
      p_master_seed = !master_seed;
      p_shard = !shard;
      p_batch = !batch;
      p_jobs = !jobs;
      p_min_budget = !min_budget;
    }
  in
  let outcome =
    Cwsp_fuzz.Campaign.run
      ?max_seconds:(if !max_seconds > 0.0 then Some !max_seconds else None)
      params ~execs:!execs
  in
  Printf.printf
    "cwsp-fuzz: shard %d/%d  execs %d  discards %d  corpus %d  cells %d \
     (+%d new)  findings %d%s\n"
    (fst !shard) (snd !shard) outcome.o_execs outcome.o_discards
    outcome.o_corpus outcome.o_cells outcome.o_new_cells outcome.o_findings
    (if outcome.o_fatal then "  [FATAL: verifier escape]" else "");
  if !json_file <> "" then begin
    let oc = open_out !json_file in
    output_string oc outcome.o_report;
    close_out oc;
    Printf.printf "JSON report written to %s\n" !json_file
  end;
  Cwsp_obs.Obs.finalize ();
  if outcome.o_findings > 0 then begin
    Printf.eprintf "cwsp-fuzz: %d findings (see %s/findings/)\n"
      outcome.o_findings !dir;
    exit 1
  end
