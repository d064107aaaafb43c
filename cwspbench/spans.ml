(* In-memory span recorder for the traced run. Spans are opened by the
   benchmark around its calls into each layer (never inside the
   program), kept in memory, and written once at the end as Chrome
   trace-event JSON. A span's self time is its duration minus the time
   its direct children cover. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root span *)
  start : float;
  mutable stop : float;
  mutable child : float;  (* summed duration of direct children *)
}

let enabled = ref false
let all : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let now = Unix.gettimeofday

let reset () =
  all := [];
  stack := [];
  next_id := 0

(* Run [f] inside a span called [name]; a plain call when disabled. *)
let with_span name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let s =
      { id = !next_id; name; parent; start = now (); stop = nan; child = 0.0 }
    in
    incr next_id;
    all := s :: !all;
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- now ();
        stack := List.tl !stack;
        match !stack with
        | p :: _ -> p.child <- p.child +. (s.stop -. s.start)
        | [] -> ())
      f
  end

let dur s = s.stop -. s.start
let self s = dur s -. s.child
let named name = List.filter (fun s -> s.name = name) !all

(* Summed self time of every span called [name], in milliseconds. *)
let self_ms name = 1000.0 *. List.fold_left (fun a s -> a +. self s) 0.0 (named name)

(* Durations (ms) of every span called [name]. *)
let durations_ms name = List.map (fun s -> 1000.0 *. dur s) (named name)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 32 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Chrome trace-event JSON: one complete ("X") event per span, with its
   parent id and self time as args. *)
let write path =
  let spans = List.rev !all in
  let t0 = match spans with s :: _ -> s.start | [] -> 0.0 in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
         \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"self_us\":%.3f}}"
        (if i = 0 then "" else ",")
        (json_escape s.name)
        (json_escape
           (match String.index_opt s.name '.' with
           | Some k -> String.sub s.name 0 k
           | None -> s.name))
        (1e6 *. (s.start -. t0))
        (1e6 *. dur s) s.id s.parent (1e6 *. self s))
    spans;
  output_string oc "\n]}\n";
  close_out oc
