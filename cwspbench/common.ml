(* Shared plumbing: the run's result record, output checks against the
   stored expected values, order statistics, digests, stdout capture and
   the process's peak resident set. *)

let work_dir = ".bench_work"
let expected_file = "cwspbench/expected.txt"

let rec rm_rf path =
  match (Unix.lstat path).st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let ensure_work_dir () =
  if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755

(* Element [i mod length] of a seed table, for any integer [i]. *)
let pick table i =
  let n = Array.length table in
  table.(((i mod n) + n) mod n)

let digest s = Digest.to_hex (Digest.string s)

(* Linear-interpolation quantile of a non-empty sample. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* CPU time (user + system) of this process. On a KVM guest with
   steal-time accounting it leaves out the time the host gave the core
   to other tenants, which wall time counts. *)
let cpu_seconds () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

(* ---- host-speed reference ----

   CPU time still counts a core that runs slower because another
   tenant's thread shares it. So a fixed kernel runs before a timed
   set-up or unit, once every [sample_every_s] seconds of CPU time (a
   campaign unit is timed one cell at a time), and [host_scale] is the
   kernel's time on an idle host over its fastest time in the run. The
   measured times are multiplied by it: a run on a host that was slow
   for its whole length is scaled back to the idle host's speed. The
   kernel stays inside L1 and allocates nothing, so neither the
   program's cache footprint nor its heap changes the kernel's time. *)

let reference_words = 1 lsl 12 (* 32 KiB of ints *)
let reference_iters = 2_000_000

(* the kernel's fastest time on an idle 2-core Xeon KVM guest *)
let reference_nominal_s = 0.006

let reference_table =
  lazy
    (let a = Bigarray.(Array1.create int c_layout reference_words) in
     for i = 0 to reference_words - 1 do
       a.{i} <- ((i * 40503) + 12345) land (reference_words - 1)
     done;
     a)

(* Dependent loads over the table, each followed by an unpredictable
   branch (as in an interpreter's dispatch), mixed into a hash; the
   table is read in order first, to bring it into L1. Returns the CPU
   time of the loads. *)
let reference_kernel () =
  let a : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t =
    Lazy.force reference_table
  in
  let s = ref 0 in
  for i = 0 to reference_words - 1 do
    s := !s + Bigarray.Array1.unsafe_get a i
  done;
  let t0 = cpu_seconds () in
  let x = ref !s and h = ref 0 in
  for i = 1 to reference_iters do
    x := Bigarray.Array1.unsafe_get a ((!x + i) land (reference_words - 1));
    h :=
      (match !x land 7 with
      | 0 -> !h + !x
      | 1 -> !h lxor (!x lsl 3)
      | 2 -> !h - (!x lsr 2)
      | 3 -> (!h * 31) + !x
      | 4 -> !h lxor (!h lsr 7)
      | 5 -> !h + (!x * 5)
      | 6 -> (!h lsl 1) lxor !x
      | _ -> !h - !x)
  done;
  ignore (Sys.opaque_identity !h);
  cpu_seconds () -. t0

let reference_samples = ref []
let sample_every_s = 0.5
let last_sample = ref neg_infinity

let sample_host () =
  if cpu_seconds () -. !last_sample >= sample_every_s then begin
    reference_samples := reference_kernel () :: !reference_samples;
    last_sample := cpu_seconds ()
  end

let host_scale () =
  match !reference_samples with
  | [] -> 1.0
  | s -> reference_nominal_s /. List.fold_left min infinity s

(* [f]'s CPU time, after a host sample if one is due *)
let timed f =
  sample_host ();
  let t0 = cpu_seconds () in
  let r = f () in
  (r, cpu_seconds () -. t0)

(* ---- per-unit timing ----

   An untraced pass is cut into units of about a second or less (the
   cells of one campaign target, one batch of a fuzz campaign, a slice
   of the figure plan), each timed from outside in CPU time. Every pass
   of a run does the same units, so a unit's fastest time over the run's
   passes discards the seconds in which other tenants slowed the host
   down; [fastest_pass] sums those minima. *)

let timing_units = ref false
let pass_units : (string, float) Hashtbl.t = Hashtbl.create 16
let unit_minima : (string, float) Hashtbl.t = Hashtbl.create 16

let timed_unit id f =
  if not !timing_units then f ()
  else begin
    let r, dt = timed f in
    let before = Option.value ~default:0.0 (Hashtbl.find_opt pass_units id) in
    Hashtbl.replace pass_units id (before +. dt);
    r
  end

(* Fold the finished pass's unit times into the per-unit minima. *)
let end_pass () =
  Hashtbl.iter
    (fun id t ->
      match Hashtbl.find_opt unit_minima id with
      | Some m when m <= t -> ()
      | _ -> Hashtbl.replace unit_minima id t)
    pass_units;
  Hashtbl.reset pass_units

let fastest_pass () = Hashtbl.fold (fun _ t acc -> acc +. t) unit_minima 0.0

(* Steps a plain reference-interpreter ([Machine]) run of [prog] takes
   to halt, trap or use up [fuel]. *)
let machine_steps ?(fuel = 10_000_000) prog =
  let m = Cwsp_interp.Machine.(create (link prog)) in
  (try Cwsp_interp.Machine.(run ~fuel m no_hooks) with _ -> ());
  Cwsp_interp.Machine.steps m

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Run [f] with file descriptor 1 redirected to a file in the work
   directory; returns [f]'s result and everything it printed. *)
let capture_stdout f =
  flush stdout;
  let path = Filename.concat work_dir "capture.out" in
  let fd = Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let saved = Unix.dup Unix.stdout in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let r =
    Fun.protect
      ~finally:(fun () ->
        flush stdout;
        Unix.dup2 saved Unix.stdout;
        Unix.close saved)
      f
  in
  (r, In_channel.with_open_bin path In_channel.input_all)

(* ---- the run's result ---- *)

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable metrics : (string * float * string) list;  (* newest first *)
}

let result = { attempted = 0; failed = 0; errors = []; metrics = [] }

let error fmt =
  Printf.ksprintf
    (fun m ->
      if List.length result.errors < 20 then
        prerr_endline ("cwspbench: error: " ^ m);
      result.errors <- m :: result.errors)
    fmt

let metric name unit v = result.metrics <- (name, v, unit) :: result.metrics

(* ---- expected values and work-count self-checks ----

   The expected file holds one "scope key value" line per checked
   output: a digest or an exact work count. Scopes are "figures"
   (no random input) and "<workload>/<seed>". A value checked more than
   once in a run (once per pass) must also repeat exactly. *)

let record = ref false
let expected : (string, string) Hashtbl.t = Hashtbl.create 1024
let seen : (string, string) Hashtbl.t = Hashtbl.create 1024

let load_expected () =
  if Sys.file_exists expected_file then
    In_channel.with_open_bin expected_file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.iter (fun line ->
           match (String.index_opt line ' ', String.rindex_opt line ' ') with
           | Some i, Some j when i < j ->
               Hashtbl.replace expected (String.sub line 0 j)
                 (String.sub line (j + 1) (String.length line - j - 1))
           | _ -> ())

(* Check one output; [false] (and an error line) on a mismatch. *)
let check ~scope key value =
  let k = scope ^ " " ^ key in
  let repeats =
    match Hashtbl.find_opt seen k with
    | Some v when v <> value ->
        error "%s: %s changed between passes (%s, then %s)" scope key v value;
        false
    | Some _ -> true
    | None ->
        Hashtbl.replace seen k value;
        if !record then Printf.printf "%s %s\n" k value;
        true
  in
  let matches =
    !record
    ||
    match Hashtbl.find_opt expected k with
    | Some v when v <> value ->
        error "%s: %s is %s, expected %s" scope key value v;
        false
    | Some _ -> true
    | None ->
        error "%s: no expected value for %s in %s" scope key expected_file;
        false
  in
  repeats && matches

let check_count ~scope key n = check ~scope key (string_of_int n)
