(** Forensic auditor and timeline reconstructor for flight-recorder
    rings.

    Given a post-crash NVM image (or a dump artifact loaded back into
    one), [audit] classifies every ring slot, separates intact records
    from torn ones, and reconstructs the cross-crash timeline in LSN
    order. Torn records are themselves findings, but *tolerated* ones:
    the single-fault adversary can only tear the append frontier, so
    invalid slots are acceptable precisely when they form the
    consecutive run of slots starting at the write frontier — the
    verdict is [Truncated]. An invalid slot anywhere else means the ring
    was damaged in a way the fault model cannot explain, and the verdict
    escalates to [Corrupt].

    Rendering is deterministic: no wall-clock anywhere; the Chrome-trace
    timestamps are LSNs and each crash epoch gets its own track. *)

module Memory = Cwsp_ir.Memory

type verdict = Clean | Truncated | Corrupt | Empty | No_ring

let verdict_name = function
  | Clean -> "clean"
  | Truncated -> "truncated"
  | Corrupt -> "corrupt"
  | Empty -> "empty"
  | No_ring -> "no-ring"

type record = {
  r_lsn : int;
  r_epoch : int;
  r_kind : Recorder.kind option;
  r_kind_code : int;
  r_args : int * int * int * int;
}

type audit = {
  a_verdict : verdict;
  a_capacity : int;
  a_records : record list;  (** intact, ascending LSN *)
  a_max_lsn : int;
  a_torn : int;  (** invalid slots explicable as the torn frontier *)
  a_corrupt_slots : int list;  (** invalid slots that are not *)
  a_stale : int;  (** intact records older than the live LSN window *)
  a_overwritten : int;  (** records lost to ring wrap, by LSN arithmetic *)
  a_epochs : int list;  (** distinct epochs present, ascending *)
}

let audit mem =
  match Recorder.read_super mem with
  | None ->
    {
      a_verdict = No_ring;
      a_capacity = 0;
      a_records = [];
      a_max_lsn = 0;
      a_torn = 0;
      a_corrupt_slots = [];
      a_stale = 0;
      a_overwritten = 0;
      a_epochs = [];
    }
  | Some capacity ->
    let slots =
      Array.init capacity (fun i -> Recorder.read_slot mem ~capacity i)
    in
    let max_lsn =
      Array.fold_left
        (fun m -> function `Record (lsn, _, _, _) -> max m lsn | _ -> m)
        0 slots
    in
    (* live window: the LSNs that should currently occupy the ring *)
    let lo = max 1 (max_lsn - capacity + 1) in
    let records = ref [] and bad = ref [] and stale = ref 0 in
    Array.iteri
      (fun i s ->
        match s with
        | `Empty -> ()
        | `Bad -> bad := i :: !bad
        | `Record (lsn, epoch, kc, args) ->
          if lsn >= lo then
            records :=
              {
                r_lsn = lsn;
                r_epoch = epoch;
                r_kind = Recorder.kind_of_code kc;
                r_kind_code = kc;
                r_args = args;
              }
              :: !records
          else begin
            (* an old record surviving where a newer one should sit: a
               torn overwrite that left the previous tenant intact *)
            incr stale;
            bad := i :: !bad
          end)
      slots;
    let bad = List.sort compare !bad in
    let records =
      List.sort (fun a b -> compare a.r_lsn b.r_lsn) !records
    in
    (* Invalid slots are tolerable iff they form a consecutive run of
       slots starting at the write frontier slot_of(max_lsn + 1): the
       only place a fail-stop crash (plus a single torn persist) can
       leave damage. *)
    let frontier = max_lsn mod capacity in
    let n_bad = List.length bad in
    let tolerated =
      let run = List.init n_bad (fun k -> (frontier + k) mod capacity) in
      List.sort compare run = bad
    in
    let verdict =
      if records = [] && n_bad = 0 then Empty
      else if n_bad = 0 then Clean
      else if tolerated then Truncated
      else Corrupt
    in
    let epochs =
      List.sort_uniq compare (List.map (fun r -> r.r_epoch) records)
    in
    {
      a_verdict = verdict;
      a_capacity = capacity;
      a_records = records;
      a_max_lsn = max_lsn;
      a_torn = (if tolerated then n_bad else 0);
      a_corrupt_slots = (if tolerated then [] else bad);
      a_stale = !stale;
      a_overwritten = max 0 (max_lsn - capacity);
      a_epochs = epochs;
    }

(* ---- decoding ---- *)

let describe r =
  let a0, a1, a2, a3 = r.r_args in
  match r.r_kind with
  | Some Recorder.Boundary ->
    Printf.sprintf "boundary committed: step=%d region=%d live-log-entries=%d%s"
      a0 a1 a2
      (if a3 <> 0 then " [sync]" else "")
  | Some Recorder.Telemetry ->
    Printf.sprintf
      "persist telemetry: regions=%d live-entries=%d sync-floor=%d slots=%d" a0
      a1 a2 a3
  | Some Recorder.Crash ->
    Printf.sprintf "power cut: step=%d nominal-region=%d mcs=%d" a0 a1 a2
  | Some Recorder.Inject ->
    Printf.sprintf "fault injected: %s site=%d" (Recorder.fault_name a0) a1
  | Some Recorder.Rung ->
    Printf.sprintf "ladder rung back=%d: usable=%b fatal=%b skips=%d" a0
      (a1 <> 0) (a2 <> 0) a3
  | Some Recorder.Decision ->
    Printf.sprintf "verdict: %s back=%d detections=%d state-ok=%b"
      (Recorder.outcome_name a0) a1 a2 (a3 <> 0)
  | Some Recorder.Resume ->
    Printf.sprintf "resumed at region=%d slices=%d reverts=%d" a0 a1 a2
  | Some Recorder.Restart ->
    Printf.sprintf "recovery crashed at sweep point %d; restarting" a0
  | Some Recorder.Cell ->
    Printf.sprintf "campaign cell %d: %s detections=%d rep=%d" a0
      (Recorder.outcome_name a1) a2 a3
  | Some Recorder.Note -> Printf.sprintf "note: %d %d %d %d" a0 a1 a2 a3
  | None -> Printf.sprintf "unknown-kind-%d: %d %d %d %d" r.r_kind_code a0 a1 a2 a3

let kind_label r =
  match r.r_kind with
  | Some k -> Recorder.kind_name k
  | None -> Printf.sprintf "kind-%d" r.r_kind_code

(* ---- correlation summary ---- *)

(* Cross-checks the timeline against the recovery audit's decisions: how
   many crashes were recorded, what was injected, and how each recovery
   attempt resolved on the degradation ladder. *)
type summary = {
  s_crashes : int;
  s_injections : (string * int) list;  (** fault class -> count *)
  s_decisions : (string * int) list;  (** outcome -> count *)
  s_refusals : int;
  s_restarts : int;
}

let summarize a =
  let bump assoc k =
    match List.assoc_opt k !assoc with
    | Some n -> assoc := (k, n + 1) :: List.remove_assoc k !assoc
    | None -> assoc := (k, 1) :: !assoc
  in
  let inj = ref [] and dec = ref [] in
  let crashes = ref 0 and refusals = ref 0 and restarts = ref 0 in
  List.iter
    (fun r ->
      let a0, _, _, _ = r.r_args in
      match r.r_kind with
      | Some Recorder.Crash -> incr crashes
      | Some Recorder.Inject -> bump inj (Recorder.fault_name a0)
      | Some Recorder.Decision ->
        bump dec (Recorder.outcome_name a0);
        if a0 = 2 then incr refusals
      | Some Recorder.Restart -> incr restarts
      | _ -> ())
    a.a_records;
  {
    s_crashes = !crashes;
    s_injections = List.sort compare !inj;
    s_decisions = List.sort compare !dec;
    s_refusals = !refusals;
    s_restarts = !restarts;
  }

(* ---- text rendering ---- *)

let render_text a =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "flight ring: verdict=%s" (verdict_name a.a_verdict);
  if a.a_verdict = No_ring then begin
    add "\n  no valid superblock in the flight region\n";
    Buffer.contents b
  end
  else begin
    add " capacity=%d records=%d max-lsn=%d epochs=%d\n" a.a_capacity
      (List.length a.a_records)
      a.a_max_lsn
      (List.length a.a_epochs);
    if a.a_torn > 0 then
      add "  torn frontier: %d slot%s unreadable (tolerated: prefix of the \
           timeline is intact)\n"
        a.a_torn
        (if a.a_torn = 1 then "" else "s");
    if a.a_stale > 0 then
      add "  stale survivors: %d slot%s kept a pre-wrap record after a torn \
           overwrite\n"
        a.a_stale
        (if a.a_stale = 1 then "" else "s");
    if a.a_corrupt_slots <> [] then
      add "  CORRUPT: slot%s %s damaged outside the write frontier\n"
        (if List.length a.a_corrupt_slots = 1 then "" else "s")
        (String.concat "," (List.map string_of_int a.a_corrupt_slots));
    if a.a_overwritten > 0 then
      add "  ring wrapped: %d oldest record%s overwritten\n" a.a_overwritten
        (if a.a_overwritten = 1 then "" else "s");
    let s = summarize a in
    add
      "  summary: crashes=%d restarts=%d refusals=%d  injections=[%s]  \
       decisions=[%s]\n"
      s.s_crashes s.s_restarts s.s_refusals
      (String.concat ", "
         (List.map (fun (k, n) -> Printf.sprintf "%s:%d" k n) s.s_injections))
      (String.concat ", "
         (List.map (fun (k, n) -> Printf.sprintf "%s:%d" k n) s.s_decisions));
    List.iter
      (fun e ->
        add "epoch %d:\n" e;
        List.iter
          (fun r ->
            if r.r_epoch = e then
              add "  lsn %-5d %-10s %s\n" r.r_lsn (kind_label r) (describe r))
          a.a_records)
      a.a_epochs;
    Buffer.contents b
  end

(* ---- Chrome trace rendering ---- *)

(* One track (pid) per crash epoch; ts is the LSN in fake microseconds,
   so relative order inside and across epochs is exact and the output is
   bit-deterministic. Complete events ("X", dur 1) render every record
   as a visible slice in about:tracing / Perfetto. *)
let render_chrome a =
  let open Cwsp_util.Json in
  let events =
    List.map
      (fun e ->
        Obj
          [
            ("ph", Str "M"); ("pid", int e); ("tid", int 0);
            ("name", Str "process_name");
            ("args", Obj [ ("name", Str (Printf.sprintf "crash epoch %d" e)) ]);
          ])
      a.a_epochs
    @ List.map
        (fun r ->
          let a0, a1, a2, a3 = r.r_args in
          Obj
            [
              ("ph", Str "X"); ("pid", int r.r_epoch); ("tid", int 1);
              ("ts", int r.r_lsn); ("dur", int 1); ("name", Str (kind_label r));
              ( "args",
                Obj
                  [
                    ("lsn", int r.r_lsn); ("detail", Str (describe r));
                    ("a0", int a0); ("a1", int a1); ("a2", int a2);
                    ("a3", int a3);
                  ] );
            ])
        a.a_records
  in
  "["
  ^ String.concat "," (List.map (fun ev -> "\n" ^ to_string ev) events)
  ^ "\n]\n"
