(** Dynamic data-race monitor: the race tier's executable cross-check.

    [Cwsp_verify.Race_check] certifies SPMD programs race-free
    statically; this monitor watches one concrete interleaving of
    [Multi.run] and reports every pair of conflicting accesses that the
    execution's happens-before order leaves unordered. A certificate is
    corroborated when monitored runs (across several scheduling quanta)
    stay race-free; a mutant that defeats the static tier must also
    misbehave here, or the static rule caught nothing real.

    The machinery is vector clocks in the FastTrack style:

    - each thread [t] carries a clock [vc_t]; per shared word the
      monitor keeps the last-write epoch [(w_tid, w_clk)] and a read
      vector, and flags any access that the recorded epoch does not
      happen-before;
    - any word an [Atomic] event ever targets is a {e sync word} from
      then on. Atomics that write (RMWs, successful CAS) form a
      release/acquire chain ([vc_t ⊔= L\[a\]; L\[a\] := vc_t]) —
      exactly how the spinlock's CAS and [atomic_rmw] unlock publish a
      critical section. A {e failed} CAS (no store committed) is an
      atomic read: it acquires ([vc_t ⊔= L\[a\]]) but does not release,
      so spinning threads cannot overwrite the holder's release clock;
    - a {e plain} store of 0 to a sync word is the TSO release idiom
      ([Race.Tso_release]): it publishes like an atomic release
      ([L\[a\] := vc_t]) and is not itself a checked access — but only
      when the storing thread's VC {e dominates} the word's current
      release clock, i.e. the thread actually synchronized on this word
      (its acquire joined, and nobody released since). A non-holder's
      0-store must not impersonate a release: it would both escape
      checking and overwrite the true holder's release VC, distorting
      happens-before for every later acquirer. Such stores, and any
      other plain access to a sync word, are checked like ordinary
      data — that is what catches mixed atomic/plain accesses to one
      word;
    - the per-thread register-checkpoint area ([Layout.is_ckpt_addr])
      is exempt: slots are thread-private by construction.

    One deliberate asymmetry: consecutive atomics on the same word are
    never reported against each other (the chain orders them by
    definition), so benign CAS contention on lock words stays silent. *)

open Cwsp_ir

type race = {
  r_addr : int; (* shared word both threads touched *)
  r_tid : int; (* thread whose access was flagged *)
  r_prev : int; (* thread that made the unordered earlier access *)
}

type outcome = {
  races : race list; (* deduplicated by address, sorted *)
  hung : bool; (* fuel ran out: some thread never finished *)
  quantum : int;
}

(* Per-word monitor state. [l] and [r] are allocated lazily: most words
   are only ever written by one thread and need neither. *)
type cell = {
  mutable sync : bool; (* some Atomic event targeted this word *)
  mutable l : int array option; (* release VC (lock words) *)
  mutable w_tid : int;
  mutable w_clk : int; (* last-write epoch; 0 = never written *)
  mutable w_plain : bool; (* that write was a plain store *)
  mutable r : int array option; (* per-thread plain-read clocks *)
}

let join dst src =
  Array.iteri (fun i v -> if v > dst.(i) then dst.(i) <- v) src

let observe ?(fuel = 200_000_000) ?(quantum = 32) ?screen (p : Prog.t)
    ~threads ~worker : outcome =
  let linked = Machine.link p in
  let t = Multi.create ~quantum linked ~threads ~worker in
  let vc = Array.init threads (fun i ->
      let c = Array.make threads 0 in
      c.(i) <- 1;
      c)
  in
  let cells : (int, cell) Hashtbl.t = Hashtbl.create 1024 in
  let cell addr =
    match Hashtbl.find_opt cells addr with
    | Some c -> c
    | None ->
      let c =
        { sync = false; l = None; w_tid = 0; w_clk = 0; w_plain = false;
          r = None }
      in
      Hashtbl.add cells addr c;
      c
  in
  let races : (int, race) Hashtbl.t = Hashtbl.create 16 in
  let flag addr ~tid ~prev =
    if not (Hashtbl.mem races addr) then
      Hashtbl.add races addr { r_addr = addr; r_tid = tid; r_prev = prev }
  in
  (* write-write / write-read: does the recorded last write happen-before
     thread [tid]'s current point? *)
  let check_write c addr tid =
    if c.w_clk > 0 && c.w_clk > vc.(tid).(c.w_tid) then
      flag addr ~tid ~prev:c.w_tid
  in
  let check_reads c addr tid =
    match c.r with
    | None -> ()
    | Some r ->
      Array.iteri
        (fun u clk -> if u <> tid && clk > vc.(tid).(u) then flag addr ~tid ~prev:u)
        r
  in
  let record_read c tid =
    let r =
      match c.r with
      | Some r -> r
      | None ->
        let r = Array.make threads 0 in
        c.r <- Some r;
        r
    in
    r.(tid) <- vc.(tid).(tid)
  in
  let record_write c tid ~plain =
    c.w_tid <- tid;
    c.w_clk <- vc.(tid).(tid);
    c.w_plain <- plain
  in
  let release c tid =
    c.l <- Some (Array.copy vc.(tid));
    vc.(tid).(tid) <- vc.(tid).(tid) + 1
  in
  (* The storing thread holds the word's synchronization iff its VC
     dominates the recorded release clock: its acquire joined that
     clock and no other thread released since. *)
  let holds_sync c tid =
    match c.l with
    | None -> false
    | Some l ->
      let ok = ref true in
      Array.iteri (fun i v -> if vc.(tid).(i) < v then ok := false) l;
      !ok
  in
  (* [on_store] fires before [on_event] for the same instruction, so the
     stored value is buffered per thread until the event classifies it.
     [wrote] marks that the current instruction actually wrote memory —
     a *failed* CAS fires the Atomic event with no store, which is how
     the monitor tells a spinning acquire attempt from a successful
     one. The flag is cleared at the end of every event (each
     instruction commits exactly one). *)
  let pending = Array.make threads 0 in
  let wrote = Array.make threads false in
  let hooks tid =
    {
      Machine.on_store =
        (fun ~addr:_ ~old:_ ~value ->
          pending.(tid) <- value;
          wrote.(tid) <- true);
      on_event =
        (fun ev ->
          let tag = Event.tag ev in
          if tag = Event.tag_load || tag = Event.tag_store
             || tag = Event.tag_atomic
          then begin
            let addr = Event.payload ev in
            if not (Layout.is_ckpt_addr addr) then begin
              let c = cell addr in
              if tag = Event.tag_load then begin
                check_write c addr tid;
                record_read c tid
              end
              else if tag = Event.tag_store then begin
                if c.sync && pending.(tid) = 0 && holds_sync c tid then
                  release c tid
                else begin
                  check_write c addr tid;
                  check_reads c addr tid;
                  record_write c tid ~plain:true
                end
              end
              else if wrote.(tid) then begin
                (* Atomic that wrote (RMW or successful CAS): a full
                   acquire+release link. The chain orders it against
                   every earlier atomic on the word, so only plain
                   state is checked. *)
                c.sync <- true;
                if c.w_plain then check_write c addr tid;
                check_reads c addr tid;
                (match c.l with Some l -> join vc.(tid) l | None -> ());
                record_write c tid ~plain:false;
                release c tid
              end
              else begin
                (* Failed CAS: an atomic read — acquire edge only. It
                   must NOT release (a spinner overwriting [l] with its
                   own VC would let the holder's later unlock store fail
                   the [holds_sync] test) and writes nothing, so only
                   the plain-write state is checked. *)
                c.sync <- true;
                if c.w_plain then check_write c addr tid;
                match c.l with Some l -> join vc.(tid) l | None -> ()
              end
            end
          end;
          wrote.(tid) <- false);
    }
  in
  let hung =
    match Multi.run ~fuel ?screen t hooks with
    | () -> false
    | exception Machine.Fuel_exhausted -> true
  in
  let rs = Hashtbl.fold (fun _ r acc -> r :: acc) races [] in
  {
    races = List.sort (fun a b -> compare a.r_addr b.r_addr) rs;
    hung;
    quantum;
  }

(** Run [observe] under several scheduling quanta: distinct quanta give
    distinct (deterministic) interleavings, so a sweep probes more of
    the schedule space than one run. *)
let sweep ?fuel ?(quanta = [ 32; 7; 13 ]) (p : Prog.t) ~threads ~worker :
    outcome list =
  List.map (fun q -> observe ?fuel ~quantum:q p ~threads ~worker) quanta

(** No run in the sweep raced or hung. *)
let all_clean (os : outcome list) =
  List.for_all (fun o -> o.races = [] && not o.hung) os
