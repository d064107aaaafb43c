(* The crash-surviving flight recorder and its post-mortem analyzer:
   ring codec round-trips, attach-by-scan cursor rebuild, wrap
   accounting, the torn-frontier tolerance rule (truncated, never
   corrupt), dump-artifact round-trips, outcome-neutrality of recording
   in the harness, and pool-width determinism of campaign dumps. *)

module Memory = Cwsp_ir.Memory
module Layout = Cwsp_ir.Layout
module Recorder = Cwsp_flight.Recorder
module Postmortem = Cwsp_flight.Postmortem
module Harness = Cwsp_recovery.Harness
module Fault = Cwsp_recovery.Fault
module Campaign = Cwsp_recovery.Campaign

let verdict = Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (Postmortem.verdict_name v))
    ( = )

(* ---- ring codec ---- *)

let test_roundtrip () =
  let mem = Memory.create () in
  Alcotest.(check bool) "no ring on blank memory" true
    (Recorder.attach mem = None);
  let t = Recorder.format ~capacity:8 mem in
  Recorder.append t ~kind:Recorder.Boundary 10 1 2 0;
  Recorder.append t ~kind:Recorder.Telemetry 3 4 (-1) 6;
  Recorder.bump_epoch t;
  Recorder.append t ~kind:Recorder.Crash 99 7 2 0;
  (* attach rebuilds the cursor purely from NVM *)
  match Recorder.attach mem with
  | None -> Alcotest.fail "attach failed on a formatted ring"
  | Some t' ->
    Alcotest.(check int) "next lsn rebuilt" 4 (Recorder.next_lsn t');
    Alcotest.(check int) "epoch rebuilt" 1 (Recorder.epoch t');
    let a = Postmortem.audit mem in
    Alcotest.check verdict "clean" Postmortem.Clean a.a_verdict;
    Alcotest.(check int) "3 records" 3 (List.length a.a_records);
    Alcotest.(check (list int)) "epochs" [ 0; 1 ] a.a_epochs;
    (* the negative telemetry arg survives the codec *)
    (match List.nth a.a_records 1 with
    | { r_args = _, _, a2, _; _ } -> Alcotest.(check int) "neg arg" (-1) a2)

let test_wrap () =
  let mem = Memory.create () in
  let t = Recorder.format ~capacity:4 mem in
  for i = 1 to 10 do
    Recorder.append t ~kind:Recorder.Note i 0 0 0
  done;
  let a = Postmortem.audit mem in
  Alcotest.check verdict "wrapped ring still clean" Postmortem.Clean a.a_verdict;
  Alcotest.(check int) "max lsn" 10 a.a_max_lsn;
  Alcotest.(check int) "overwritten" 6 a.a_overwritten;
  Alcotest.(check (list int)) "surviving suffix"
    [ 7; 8; 9; 10 ]
    (List.map (fun (r : Postmortem.record) -> r.r_lsn) a.a_records)

(* ---- the torn-frontier tolerance rule (satellite: ring faults) ---- *)

(* Tear every word of the frontier record in turn (and then all of them
   at once): the audit must always come back [Truncated] — a consistent
   prefix — and every intact record must still be readable. Damage
   anywhere else must come back [Corrupt]. *)
let test_torn_frontier_truncates () =
  let build () =
    let mem = Memory.create () in
    let t = Recorder.format ~capacity:8 mem in
    for i = 1 to 6 do
      Recorder.append t ~kind:Recorder.Note i i i i
    done;
    (mem, t)
  in
  let _, t0 = build () in
  let frontier = Recorder.frontier_words t0 in
  Alcotest.(check int) "frontier is one record" Recorder.record_words
    (List.length frontier);
  List.iter
    (fun addr ->
      let mem, _ = build () in
      Memory.write mem addr 0xdeadbeef;
      let a = Postmortem.audit mem in
      Alcotest.check verdict
        (Printf.sprintf "torn word @%x -> truncated" addr)
        Postmortem.Truncated a.a_verdict;
      Alcotest.(check int) "prefix survives" 5 (List.length a.a_records);
      Alcotest.(check int) "one torn slot" 1 a.a_torn)
    frontier;
  (* the whole frontier record smashed at once *)
  let mem, _ = build () in
  List.iter (fun addr -> Memory.write mem addr 0xdeadbeef) frontier;
  let a = Postmortem.audit mem in
  Alcotest.check verdict "smashed frontier -> truncated" Postmortem.Truncated
    a.a_verdict;
  (* a mid-ring slot torn with the frontier intact is NOT crash-shaped *)
  let mem, _ = build () in
  Memory.write mem (Recorder.slot_addr 2) 0xdeadbeef;
  let a = Postmortem.audit mem in
  Alcotest.check verdict "mid-ring damage -> corrupt" Postmortem.Corrupt
    a.a_verdict;
  Alcotest.(check (list int)) "corrupt slot reported" [ 2 ] a.a_corrupt_slots

(* a torn frontier never stops the next epoch: append overwrites it *)
let test_append_after_tear () =
  let mem = Memory.create () in
  let t = Recorder.format ~capacity:8 mem in
  for i = 1 to 3 do
    Recorder.append t ~kind:Recorder.Note i 0 0 0
  done;
  (match Recorder.frontier_words t with
  | commit :: _ -> Memory.write mem commit 0x1234
  | [] -> Alcotest.fail "no frontier");
  match Recorder.attach mem with
  | None -> Alcotest.fail "attach failed"
  | Some t' ->
    (* lsn 3 was torn away, so the scan sees max lsn 2 and reuses 3 *)
    Alcotest.(check int) "torn frontier lsn reused" 3 (Recorder.next_lsn t');
    Recorder.bump_epoch t';
    Recorder.append t' ~kind:Recorder.Restart 0 0 0 0;
    let a = Postmortem.audit mem in
    Alcotest.check verdict "healed by overwrite" Postmortem.Clean a.a_verdict;
    Alcotest.(check (list int)) "epochs" [ 0; 1 ] a.a_epochs

(* ---- dump artifact ---- *)

let test_dump_roundtrip () =
  let mem = Memory.create () in
  let t = Recorder.format ~capacity:8 mem in
  Recorder.append t ~kind:Recorder.Telemetry 17 102 (-1) 12;
  Recorder.bump_epoch t;
  Recorder.append t ~kind:Recorder.Decision 1 15 4 1;
  let dump = Recorder.dump_string mem in
  (match Recorder.load_dump_string dump with
  | None -> Alcotest.fail "dump failed to parse"
  | Some mem' ->
    Alcotest.(check string) "dump round-trips byte-exactly" dump
      (Recorder.dump_string mem');
    let a = Postmortem.audit mem' in
    Alcotest.check verdict "reloaded ring clean" Postmortem.Clean a.a_verdict;
    Alcotest.(check string) "text render deterministic"
      (Postmortem.render_text (Postmortem.audit mem))
      (Postmortem.render_text a));
  Alcotest.(check bool) "garbage rejected" true
    (Recorder.load_dump_string "not a dump" = None);
  (* a dump naming an address outside the flight region is rejected *)
  Alcotest.(check bool) "foreign address rejected" true
    (Recorder.load_dump_string (Recorder.dump_header ^ "\n10 1\n") = None)

let test_empty_and_noring () =
  let mem = Memory.create () in
  Alcotest.check verdict "blank memory" Postmortem.No_ring
    (Postmortem.audit mem).a_verdict;
  let _ = Recorder.format ~capacity:8 mem in
  Alcotest.check verdict "formatted, no records" Postmortem.Empty
    (Postmortem.audit mem).a_verdict

(* ---- harness integration: recording is outcome-neutral ---- *)

let compiled_of name =
  Cwsp_core.Api.compiled
    (Cwsp_workloads.Registry.find_exn name)
    Cwsp_compiler.Pipeline.cwsp

let test_harness_flight_neutral () =
  let compiled = compiled_of "fft" in
  let g = Harness.golden_of Main compiled in
  List.iter
    (fun cls ->
      let run flight =
        Harness.validate_fault ~golden:g ~hardened:true ~flight ~fault:cls
          ~seed:7 ~crash_at:(g.g_steps / 2) compiled
      in
      match (run false, run true) with
      | Ok off, Ok on ->
        Alcotest.(check bool)
          (Fault.name cls ^ ": outcome unchanged by recording")
          true
          (off.fr_outcome = on.fr_outcome
          && off.fr_state_ok = on.fr_state_ok
          && off.fr_injected = on.fr_injected
          && off.fr_detections = on.fr_detections
          && off.fr_rung_region = on.fr_rung_region);
        Alcotest.(check bool) "dump only when enabled" true
          (off.fr_flight = None && on.fr_flight <> None);
        (* the dump must audit as a trustworthy timeline with the crash
           and the ladder's verdict on it *)
        let dump = Option.get on.fr_flight in
        (match Recorder.load_dump_string dump with
        | None -> Alcotest.fail "harness dump unparseable"
        | Some mem ->
          let a = Postmortem.audit mem in
          Alcotest.(check bool)
            (Fault.name cls ^ ": dump trustworthy")
            true
            (a.a_verdict = Postmortem.Clean
            || a.a_verdict = Postmortem.Truncated);
          let s = Postmortem.summarize a in
          Alcotest.(check int) "one crash" 1 s.s_crashes;
          Alcotest.(check bool) "a decision was recorded" true
            (s.s_decisions <> []))
      | Error a, Error b ->
        Alcotest.(check string) "same harness error" a b
      | _ -> Alcotest.failf "%s: flight changed Ok/Error" (Fault.name cls))
    [ Fault.Torn_persist; Fault.Log_corruption; Fault.Ckpt_bitflip ]

let test_explicit_flight () =
  let compiled =
    Cwsp_core.Api.compiled
      (Cwsp_workloads.Registry.find_exn "fft")
      Cwsp_compiler.Pipeline.cwsp_explicit
  in
  let dump =
    match Harness.validate_explicit ~flight:true ~crash_at:2000 compiled with
    | Ok r -> r.fr_flight
    | Error e -> Alcotest.fail e
  in
  match Option.bind dump Recorder.load_dump_string with
  | None -> Alcotest.fail "explicit dump missing or unparseable"
  | Some mem ->
    let a = Postmortem.audit mem in
    Alcotest.check verdict "explicit dump clean" Postmortem.Clean a.a_verdict;
    let s = Postmortem.summarize a in
    Alcotest.(check int) "crash recorded" 1 s.s_crashes;
    (* chrome render is well-formed enough for a JSON validator *)
    let chrome = Postmortem.render_chrome a in
    Alcotest.(check bool) "chrome render shape" true
      (String.length chrome > 2
      && chrome.[0] = '['
      && String.ends_with ~suffix:"]\n" chrome);
    Alcotest.(check string) "chrome render bytes pinned" "358b735939dcf4a1467a14f2d1dd0596"
      (Digest.to_hex (Digest.string chrome))

(* ---- campaign dumps are identical at any pool width ---- *)

let test_campaign_flight_deterministic () =
  let target = Campaign.target ~name:"fft" (compiled_of "fft") in
  let run map =
    Campaign.run ~map ~flight:true ~seeds:2
      ~classes:[ Fault.Torn_persist; Fault.Log_corruption ]
      [ target ]
  in
  let seq = run Array.map in
  let par = run (fun f specs -> Cwsp_core.Executor.map_pool ~jobs:3 f specs) in
  let dumps r =
    List.map
      (fun (c : Campaign.cell) -> (Campaign.flight_file_name c, c.c_flight))
      r.Campaign.r_cells
  in
  Alcotest.(check bool) "every cell carries a dump" true
    (List.for_all (fun (_, d) -> d <> None) (dumps seq));
  Alcotest.(check bool) "dumps identical, jobs=seq vs pool" true
    (dumps seq = dumps par);
  (* each dump ends with the campaign's own Cell verdict in a new epoch *)
  List.iter
    (fun (c : Campaign.cell) ->
      match Option.bind c.c_flight Recorder.load_dump_string with
      | None -> Alcotest.fail "cell dump unparseable"
      | Some mem ->
        let a = Postmortem.audit mem in
        let last = List.nth a.a_records (List.length a.a_records - 1) in
        Alcotest.(check bool) "last record is the cell verdict" true
          (last.r_kind = Some Recorder.Cell))
    seq.Campaign.r_cells

(* Byte-identity pin for recorder-on runs: the digests of every cell
   dump of a small flight campaign, and of the Telemetry records alone
   (window fill, live undo-log entries, sync floor, written slots —
   the boundary telemetry must keep being written while recording). *)
let test_campaign_flight_pinned () =
  let target = Campaign.target ~name:"fft" (compiled_of "fft") in
  let r = Campaign.run ~flight:true ~seeds:2 ~classes:Fault.all [ target ] in
  let dumps =
    String.concat "\n--\n"
      (List.map
         (fun (c : Campaign.cell) -> Option.value ~default:"" c.c_flight)
         r.r_cells)
  in
  let tele = Buffer.create 4096 in
  List.iter
    (fun (c : Campaign.cell) ->
      match Option.bind c.c_flight Recorder.load_dump_string with
      | None -> Buffer.add_string tele "none\n"
      | Some mem ->
        List.iter
          (fun (rc : Postmortem.record) ->
            if rc.r_kind = Some Recorder.Telemetry then
              let a0, a1, a2, a3 = rc.r_args in
              Printf.bprintf tele "%d %d %d %d %d\n" rc.r_lsn a0 a1 a2 a3)
          (Postmortem.audit mem).a_records)
    r.r_cells;
  let live_logged =
    List.exists
      (fun l ->
        match String.split_on_char ' ' l with
        | [ _; _; live; _; _ ] -> int_of_string live > 0
        | _ -> false)
      (String.split_on_char '\n' (Buffer.contents tele))
  in
  Alcotest.(check bool) "live undo-log entries recorded" true live_logged;
  let hex s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) "cell dumps" "2ae332a9ec71d9d0d53911b499003f43"
    (hex dumps);
  Alcotest.(check string) "telemetry records"
    "3d60c2d4a422d851773a6e82aa4c4646"
    (hex (Buffer.contents tele));
  Alcotest.(check string) "report" "1d9b2827994e88858f8221576a8ce158"
    (hex (Campaign.to_json r))

let () =
  Alcotest.run "flight"
    [
      ( "ring",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "wrap" `Quick test_wrap;
          Alcotest.test_case "torn frontier truncates" `Quick
            test_torn_frontier_truncates;
          Alcotest.test_case "append after tear" `Quick test_append_after_tear;
          Alcotest.test_case "dump roundtrip" `Quick test_dump_roundtrip;
          Alcotest.test_case "empty and no-ring" `Quick test_empty_and_noring;
        ] );
      ( "harness",
        [
          Alcotest.test_case "recording is outcome-neutral" `Quick
            test_harness_flight_neutral;
          Alcotest.test_case "explicit-mode dump" `Quick test_explicit_flight;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "dumps deterministic across pool widths" `Quick
            test_campaign_flight_deterministic;
          Alcotest.test_case "recorder-on dumps pinned" `Quick
            test_campaign_flight_pinned;
        ] );
    ]
