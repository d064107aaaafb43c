(** fault-campaign — deterministic adversarial fault-injection campaign
    over the recovery protocol: a (workload x fault-class x seed) matrix
    of crashes with a faulty persistence path (torn persists, dropped
    persist-buffer tails, corrupted undo logs, checkpoint bit rot, power
    failure during recovery), recovered by the hardened protocol and
    checked bit-exactly against failure-free runs.

    Exits non-zero if any fault ESCAPES — the protocol claims success
    but the final NVM/IO state diverges. [--unhardened] runs the blind
    legacy protocol instead (escapes expected; for studying the fault
    model, not for CI). [--jobs N] fans cells over the domain pool;
    per-cell RNG streams are derived from the master seed and the cell's
    matrix position, so the report is byte-identical at any width. *)

open Cwsp_workloads

let default_workloads =
  [ "lu-ncg"; "fft"; "kmeans"; "vacation"; "bzip2"; "radix"; "tatp"; "xz" ]

let split_csv s = String.split_on_char ',' s |> List.filter (fun x -> x <> "")

(* A count option: a negative value is a usage error, not a crash. *)
let set_count r name =
  Arg.Int (fun n -> if n < 0 then raise (Arg.Bad (name ^ " must be >= 0")) else r := n)

let () =
  let workloads = ref default_workloads in
  let classes = ref Cwsp_recovery.Fault.all in
  let seeds = ref 20 in
  let jobs = ref 1 in
  let window = ref 16 in
  let master_seed = ref 2024 in
  let hardened = ref true in
  let json_file = ref "" in
  let flight_dir = ref "" in
  let trace = ref "" in
  let metrics = ref "" in
  Arg.parse
    [
      ( "--workloads",
        Arg.String (fun s -> workloads := split_csv s),
        "W1,W2,...  registry workloads to crash (default: a fast 8-workload \
         mix)" );
      ( "--classes",
        Arg.String
          (fun s ->
            classes :=
              List.map
                (fun n ->
                  match Cwsp_recovery.Fault.of_name n with
                  | Some c -> c
                  | None -> raise (Arg.Bad ("unknown fault class " ^ n)))
                (split_csv s)),
        "C1,C2,...  fault classes (default: all five)" );
      ("--seeds", set_count seeds "--seeds", "N  repetitions per (workload, class) cell (default 20)");
      ("--jobs", Arg.Set_int jobs, "N  run N cells at a time on the domain pool");
      ("--window", set_count window "--window", "N  RBT window (default 16)");
      ("--master-seed", Arg.Set_int master_seed, "N  campaign master seed (default 2024)");
      ( "--unhardened",
        Arg.Clear hardened,
        "  run the blind legacy protocol (escapes expected)" );
      ("--json", Arg.Set_string json_file, "FILE  write the JSON coverage report");
      ( "--flight",
        Arg.Set_string flight_dir,
        "DIR  record every cell's in-NVM flight ring and write the dumps \
         (one .flight file per cell; feed to cwsp_postmortem)" );
      ( "--trace",
        Arg.Set_string trace,
        "FILE  write a Chrome trace-event JSON profile (per-cell spans)" );
      ( "--metrics",
        Arg.Set_string metrics,
        "FILE  write flat JSON metrics (per-class outcome counters)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fault_campaign [--workloads ...] [--classes ...] [--seeds N] [--jobs N] \
     [--unhardened] [--json FILE] [--trace FILE] [--metrics FILE]";
  Cwsp_obs.Obs.configure
    ?trace:(if !trace = "" then None else Some !trace)
    ?metrics:(if !metrics = "" then None else Some !metrics)
    ();
  let targets =
    List.map
      (fun name ->
        match List.find_opt (fun (d : Defs.t) -> d.name = name) Registry.all with
        | None ->
            Printf.eprintf "fault-campaign: unknown workload %s\n" name;
            exit 2
        | Some w ->
            Cwsp_recovery.Campaign.target ~name
              (Cwsp_core.Api.compiled w Cwsp_compiler.Pipeline.cwsp))
      !workloads
  in
  let report =
    Cwsp_recovery.Campaign.run
      ~map:(fun f specs -> Cwsp_core.Executor.map_pool ~jobs:!jobs f specs)
      ~window:!window ~hardened:!hardened ~master_seed:!master_seed
      ~flight:(!flight_dir <> "") ~seeds:!seeds ~classes:!classes targets
  in
  print_string (Cwsp_recovery.Campaign.render report);
  if !flight_dir <> "" then begin
    let n = Cwsp_recovery.Campaign.save_flights report !flight_dir in
    Printf.printf "flight dumps: %d written to %s\n" n !flight_dir
  end;
  if !json_file <> "" then begin
    let oc = open_out !json_file in
    output_string oc (Cwsp_recovery.Campaign.to_json report);
    close_out oc;
    Printf.printf "JSON report written to %s\n" !json_file
  end;
  Cwsp_obs.Obs.finalize ();
  let esc = List.length (Cwsp_recovery.Campaign.escaped report) in
  if !hardened && esc > 0 then begin
    Printf.eprintf "fault-campaign: %d escaped faults\n" esc;
    exit 1
  end
