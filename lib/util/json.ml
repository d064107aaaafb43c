type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | List of t list
  | Obj of (string * t) list

let int i = Num (string_of_int i)
let float f = if Float.is_finite f then Num (Printf.sprintf "%.6g" f) else Null

(* ---- printing ---- *)

let add_quoted b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let quote s =
  let b = Buffer.create (String.length s + 8) in
  add_quoted b s;
  Buffer.contents b

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num lit -> Buffer.add_string b lit
  | Str s -> add_quoted b s
  | List vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        to_buffer b v)
      vs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        add_quoted b k;
        Buffer.add_char b ':';
        to_buffer b v)
      kvs;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 64 in
  to_buffer b v;
  Buffer.contents b

let kv k v = quote k ^ ":" ^ to_string v

(* ---- parsing ---- *)

exception Parse_error of int * string

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  (* '\000' past the end: never valid where it is tested *)
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then advance () else fail (Printf.sprintf "expected %C" c)
  in
  let hex4 () =
    if !pos + 4 > n || not (String.for_all is_hex (String.sub s !pos 4)) then
      fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ String.sub s (!pos - 4) 4)
  in
  let string_body () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = peek () in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        let e = peek () in
        advance ();
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char buf e
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let c = hex4 () in
          if c land 0xF800 = 0xD800 then fail "surrogate \\u escape";
          Buffer.add_utf_8_uchar buf (Uchar.of_int c)
        | _ -> fail "bad escape");
        go ()
      | c when c < ' ' -> fail "control character in string"
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  (* -?(0|[1-9][0-9]* )(.[0-9]+)?([eE][+-]?[0-9]+)? *)
  let number () =
    let start = !pos in
    let digits () =
      if not (is_digit (peek ())) then fail "bad number";
      while is_digit (peek ()) do advance () done
    in
    if peek () = '-' then advance ();
    if peek () = '0' then advance () else digits ();
    if peek () = '.' then (advance (); digits ());
    if peek () = 'e' || peek () = 'E' then begin
      advance ();
      if peek () = '+' || peek () = '-' then advance ();
      digits ()
    end;
    Num (String.sub s start (!pos - start))
  in
  (* the elements of a non-empty sequence up to [close] *)
  let rec elements close item acc =
    let acc = item () :: acc in
    skip_ws ();
    match peek () with
    | ',' -> advance (); elements close item acc
    | c when c = close -> advance (); List.rev acc
    | _ -> fail (Printf.sprintf "expected ',' or %C" close)
  in
  let sequence close item =
    advance ();
    skip_ws ();
    if peek () = close then (advance (); [])
    else elements close item []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      Obj
        (sequence '}' (fun () ->
             skip_ws ();
             let k = string_body () in
             skip_ws ();
             expect ':';
             (k, value ())))
    | '[' -> List (sequence ']' value)
    | '"' -> Str (string_body ())
    | 't' -> String.iter expect "true"; Bool true
    | 'f' -> String.iter expect "false"; Bool false
    | 'n' -> String.iter expect "null"; Null
    | _ -> number ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let of_file path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse s

(* ---- accessors ---- *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
let to_list = function List vs -> vs | _ -> []
let to_string_opt = function Str s -> Some s | _ -> None
let to_float_opt = function Num lit -> float_of_string_opt lit | _ -> None
let to_int_opt = function Num lit -> int_of_string_opt lit | _ -> None
