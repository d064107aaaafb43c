(* Unit and property tests for Cwsp_util. *)

open Cwsp_util

let qtest = QCheck_alcotest.to_alcotest

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check bool) "different streams differ" true (xs <> ys)

let prop_rng_int_range =
  QCheck.Test.make ~name:"Rng.int in range" ~count:500
    QCheck.(pair small_int (int_range 1 10000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_skewed_range =
  QCheck.Test.make ~name:"Rng.skewed in range" ~count:500
    QCheck.(pair small_int (int_range 1 10000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.skewed rng bound in
      v >= 0 && v < bound)

let draw n rng = List.init n (fun _ -> Rng.int rng 1_000_000)

let test_rng_split () =
  let p1 = Rng.create 99 and p2 = Rng.create 99 in
  let c1 = Rng.split p1 and c2 = Rng.split p2 in
  Alcotest.(check (list int)) "split is deterministic" (draw 20 c1) (draw 20 c2);
  (* the child's stream must not reappear in the parent's continuation *)
  Alcotest.(check bool) "child differs from parent continuation" true
    (draw 20 (Rng.split (Rng.create 99)) <> draw 20 p1)

let test_rng_stream_pure () =
  let a = Rng.create 7 and b = Rng.create 7 in
  ignore (draw 10 (Rng.stream a 3));
  ignore (draw 10 (Rng.stream a 12));
  (* deriving streams must not advance the parent *)
  Alcotest.(check (list int)) "parent unmoved" (draw 20 b) (draw 20 a)

let test_rng_stream_indexed () =
  let parent = Rng.create 11 in
  let at i = draw 8 (Rng.stream parent i) in
  Alcotest.(check (list int)) "same index, same stream" (at 5) (at 5);
  Alcotest.(check bool) "indices 0/1 differ" true (at 0 <> at 1);
  Alcotest.(check bool) "index differs from raw parent copy" true
    (at 0 <> draw 8 (Rng.copy parent));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Rng.stream: negative index") (fun () ->
      ignore (Rng.stream parent (-1)))

let prop_rng_stream_decorrelated =
  (* first outputs of sibling streams behave like independent draws *)
  QCheck.Test.make ~name:"Rng.stream siblings differ" ~count:200
    QCheck.(pair small_int (int_range 0 1000))
    (fun (seed, i) ->
      let p = Rng.create seed in
      draw 4 (Rng.stream p i) <> draw 4 (Rng.stream p (i + 1)))

let test_rng_shuffle_permutation () =
  let rng = Rng.create 7 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* ---- Stats ---- *)

let test_gmean_basic () =
  Alcotest.(check (float 1e-9)) "gmean of equal" 2.0 (Stats.gmean [ 2.0; 2.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "gmean 1x4" 2.0 (Stats.gmean [ 1.0; 4.0 ])

let test_gmean_rejects_nonpositive () =
  Alcotest.check_raises "non-positive" (Invalid_argument "Stats.gmean: non-positive input")
    (fun () -> ignore (Stats.gmean [ 1.0; 0.0 ]))

let prop_gmean_between_min_max =
  QCheck.Test.make ~name:"gmean within [min,max]" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 20) (float_range 0.01 100.0))
    (fun xs ->
      let g = Stats.gmean xs in
      let lo, hi = Stats.min_max xs in
      g >= lo -. 1e-9 && g <= hi +. 1e-9)

let prop_mean_scale =
  QCheck.Test.make ~name:"mean scales linearly" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 20) (float_range (-100.) 100.0))
    (fun xs ->
      let m = Stats.mean xs in
      let m2 = Stats.mean (List.map (fun x -> 2.0 *. x) xs) in
      abs_float (m2 -. (2.0 *. m)) < 1e-6)

let test_stddev () =
  Alcotest.(check (float 1e-9)) "constant has zero stddev" 0.0
    (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  Alcotest.(check (float 1e-9)) "known sample" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ])

let test_acc () =
  let a = Stats.Acc.create () in
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Stats.Acc.mean a);
  Stats.Acc.add a 1.0;
  Stats.Acc.add a 3.0;
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.Acc.mean a);
  Alcotest.(check int) "count" 2 (Stats.Acc.count a)

let test_acc_merge () =
  let a = Stats.Acc.create () and b = Stats.Acc.create () in
  Stats.Acc.add a 1.0;
  Stats.Acc.add b 3.0;
  Stats.Acc.add b 5.0;
  Stats.Acc.merge ~into:a b;
  Alcotest.(check int) "merged count" 3 (Stats.Acc.count a);
  Alcotest.(check (float 1e-9)) "merged mean" 3.0 (Stats.Acc.mean a);
  (* src untouched *)
  Alcotest.(check int) "src count" 2 (Stats.Acc.count b);
  (* merging an empty accumulator is the identity *)
  Stats.Acc.merge ~into:a (Stats.Acc.create ());
  Alcotest.(check int) "identity merge" 3 (Stats.Acc.count a)

let test_hist_basic () =
  let h = Stats.Histogram.create [| 1.0; 2.0; 5.0 |] in
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Stats.Histogram.quantile h 0.5));
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 1.5; 3.0; 100.0 ];
  Alcotest.(check int) "count" 5 (Stats.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 106.5 (Stats.Histogram.sum h);
  Alcotest.(check (float 1e-9)) "mean" 21.3 (Stats.Histogram.mean h);
  Alcotest.(check (list (pair (float 0.0) int)))
    "buckets"
    [ (1.0, 1); (2.0, 2); (5.0, 1); (infinity, 1) ]
    (Stats.Histogram.buckets h)

let test_hist_bad_bounds () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Histogram.create: no buckets") (fun () ->
      ignore (Stats.Histogram.create [||]));
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Histogram.create: bounds not strictly increasing")
    (fun () -> ignore (Stats.Histogram.create [| 1.0; 1.0 |]))

let test_hist_quantile () =
  let h = Stats.Histogram.create [| 10.0; 20.0; 30.0 |] in
  for v = 1 to 30 do
    Stats.Histogram.add h (float_of_int v)
  done;
  (* extremes clamp to the observed min/max *)
  Alcotest.(check (float 1e-9)) "q0" 1.0 (Stats.Histogram.quantile h 0.0);
  Alcotest.(check (float 1e-9)) "q1" 30.0 (Stats.Histogram.quantile h 1.0);
  (* the median of a uniform 1..30 sample lands in the middle bucket *)
  let q50 = Stats.Histogram.quantile h 0.5 in
  Alcotest.(check bool) "q50 in middle bucket" true (q50 >= 10.0 && q50 <= 20.0);
  (* overflow-bucket quantiles report the observed max, not infinity *)
  let h2 = Stats.Histogram.create [| 1.0 |] in
  Stats.Histogram.add h2 50.0;
  Stats.Histogram.add h2 70.0;
  Alcotest.(check (float 1e-9)) "overflow q99" 70.0
    (Stats.Histogram.quantile h2 0.99);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Histogram.quantile: q outside [0,1]") (fun () ->
      ignore (Stats.Histogram.quantile h 1.5))

let test_hist_p999 () =
  (* uniform 1..1000 with 250-wide buckets: every tail quantile lands in
     the last bucket and interpolates exactly (rank 999 of 1000 is 99.6%
     through [750,1000] -> 999.0) *)
  let h = Stats.Histogram.create [| 250.0; 500.0; 750.0; 1000.0 |] in
  for v = 1 to 1000 do
    Stats.Histogram.add h (float_of_int v)
  done;
  Alcotest.(check (float 1e-9)) "p99 interpolates" 990.0
    (Stats.Histogram.quantile h 0.99);
  Alcotest.(check (float 1e-9)) "p999 interpolates" 999.0
    (Stats.Histogram.quantile h 0.999);
  Alcotest.(check string) "summary digest"
    "count=1000 mean=500.5 p50=500 p90=900 p99=990 p999=999"
    (Stats.Histogram.summary h);
  Alcotest.(check string) "empty summary" "count=0"
    (Stats.Histogram.summary (Stats.Histogram.create [| 1.0 |]))

let prop_hist_quantile_monotone =
  QCheck.Test.make ~name:"histogram quantiles are monotone in q" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range 0.0 1000.0))
    (fun xs ->
      let h = Stats.Histogram.create [| 1.0; 10.0; 100.0; 500.0 |] in
      List.iter (Stats.Histogram.add h) xs;
      let qs = [ 0.0; 0.25; 0.5; 0.75; 0.9; 1.0 ] in
      let vs = List.map (Stats.Histogram.quantile h) qs in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
        | _ -> true
      in
      mono vs)

let test_hist_merge () =
  let a = Stats.Histogram.create [| 1.0; 2.0 |] in
  let b = Stats.Histogram.create [| 1.0; 2.0 |] in
  Stats.Histogram.add a 0.5;
  Stats.Histogram.add b 1.5;
  Stats.Histogram.add b 9.0;
  Stats.Histogram.merge ~into:a b;
  Alcotest.(check int) "merged count" 3 (Stats.Histogram.count a);
  Alcotest.(check (float 1e-9)) "merged sum" 11.0 (Stats.Histogram.sum a);
  Alcotest.(check (list (pair (float 0.0) int)))
    "merged buckets"
    [ (1.0, 1); (2.0, 1); (infinity, 1) ]
    (Stats.Histogram.buckets a);
  Alcotest.(check (float 1e-9)) "merged max visible to quantile" 9.0
    (Stats.Histogram.quantile a 1.0);
  Alcotest.check_raises "mismatched bounds"
    (Invalid_argument "Histogram.merge: different bucket bounds") (fun () ->
      Stats.Histogram.merge ~into:a (Stats.Histogram.create [| 3.0 |]))

(* ---- Table ---- *)

let test_table_alignment () =
  let s = Table.render ~headers:[ "a"; "bb" ] [ [ "xxx"; "1" ]; [ "y"; "22" ] ] in
  let lines = String.split_on_char '\n' s in
  (match lines with
  | h :: _sep :: r1 :: r2 :: _ ->
    Alcotest.(check int) "equal widths" (String.length h) (String.length r1);
    Alcotest.(check int) "equal widths" (String.length h) (String.length r2)
  | _ -> Alcotest.fail "unexpected shape");
  Alcotest.(check bool) "contains data" true
    (String.length s > 0)

let test_table_ragged_rejected () =
  Alcotest.check_raises "ragged" (Invalid_argument "Table.render: ragged row")
    (fun () -> ignore (Table.render ~headers:[ "a" ] [ [ "1"; "2" ] ]))

(* ---- Json ---- *)

let all_ascii = String.init 128 Char.chr

let gen_json =
  let open QCheck.Gen in
  let str =
    frequency
      [
        (9, string_size ~gen:(char_range '\000' '\127') (int_range 0 12));
        (1, return all_ascii);
      ]
  in
  let num =
    oneof
      [
        map Json.int int; map Json.float float;
        map
          (fun f -> Json.Num (Printf.sprintf "%.3f" f))
          (float_range (-1e6) 1e6);
      ]
  in
  let leaf =
    oneof
      [
        return Json.Null; map (fun b -> Json.Bool b) bool; num;
        map (fun s -> Json.Str s) str;
      ]
  in
  sized_size (int_range 0 4)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 1,
                 map
                   (fun vs -> Json.List vs)
                   (list_size (int_range 0 4) (self (n - 1))) );
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (int_range 0 4) (pair str (self (n - 1)))) );
             ])

let prop_json_roundtrip =
  QCheck.Test.make ~name:"Json.parse (to_string v) = v" ~count:500
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v -> Json.parse (Json.to_string v) = v)

let test_json_quote () =
  Alcotest.(check string) "escapes" {|"a\"b\\c\nd\u0001\u000d/"|}
    (Json.quote "a\"b\\c\nd\001\r/");
  Alcotest.(check bool) "every ASCII byte round-trips" true
    (Json.parse (Json.quote all_ascii) = Json.Str all_ascii);
  Alcotest.(check string) "non-finite float is null" "null"
    (Json.to_string (Json.float Float.nan))

let test_json_decode () =
  let str s = Json.to_string_opt (Json.parse s) in
  Alcotest.(check (option string)) "\\u0041" (Some "A") (str {|"\u0041"|});
  Alcotest.(check (option string)) "utf-8" (Some "\xc3\xa9") (str {|"\u00e9"|});
  let v = Json.parse {| {"n": -0.5e+3, "i": 12, "l": [true, null]} |} in
  let get k = Option.get (Json.member k v) in
  Alcotest.(check bool) "literal kept" true (get "n" = Json.Num "-0.5e+3");
  Alcotest.(check (option (float 0.0))) "to_float_opt" (Some (-500.0))
    (Json.to_float_opt (get "n"));
  Alcotest.(check (option int)) "to_int_opt" (Some 12)
    (Json.to_int_opt (get "i"));
  Alcotest.(check (option int)) "to_int_opt fraction" None
    (Json.to_int_opt (get "n"));
  Alcotest.(check int) "to_list" 2 (List.length (Json.to_list (get "l")));
  Alcotest.(check bool) "member of non-object" true
    (Json.member "x" (get "l") = None)

let test_json_rejects () =
  List.iter
    (fun s ->
      match Json.parse s with
      | exception Json.Parse_error _ -> ()
      | v -> Alcotest.failf "accepted %S as %s" s (Json.to_string v))
    [
      "[1] x"; {|"abc|}; {|"\u00|}; {|"\u12"|}; "+1"; ".5"; "01"; "0x10";
      "1."; "-"; "1e"; "[1,]"; "nul"; "\"a\nb\""; {|"\ud83d\ude00"|}; "";
    ];
  Alcotest.check_raises "byte offset" (Json.Parse_error (7, "trailing garbage"))
    (fun () -> ignore (Json.parse "[1, 2] x"))

(* The committed BENCH_<run>.json snapshots, old spaced and new compact
   layouts alike (copied next to the test directory by dune). *)
let test_json_bench_files () =
  let bench_in dir =
    if Sys.file_exists dir && Sys.is_directory dir then
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f ->
             String.starts_with ~prefix:"BENCH_" f
             && Filename.check_suffix f ".json")
      |> List.map (Filename.concat dir)
    else []
  in
  let files =
    match List.filter (( <> ) []) (List.map bench_in [ ".."; "." ]) with
    | fs :: _ -> fs
    | [] -> []
  in
  Alcotest.(check bool) "at least 5 BENCH files" true (List.length files >= 5);
  List.iter
    (fun path ->
      let j = Json.of_file path in
      let exps =
        Option.fold ~none:[] ~some:Json.to_list (Json.member "experiments" j)
      in
      if exps = [] then Alcotest.failf "%s: no experiments" path;
      List.iter
        (fun e ->
          match
            ( Option.bind (Json.member "id" e) Json.to_string_opt,
              Option.bind (Json.member "wall_s" e) Json.to_float_opt )
          with
          | Some _, Some _ -> ()
          | _ -> Alcotest.failf "%s: experiment without id/wall_s" path)
        exps)
    files

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
          qtest prop_rng_int_range;
          qtest prop_rng_skewed_range;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "stream purity" `Quick test_rng_stream_pure;
          Alcotest.test_case "stream indexing" `Quick test_rng_stream_indexed;
          qtest prop_rng_stream_decorrelated;
        ] );
      ( "stats",
        [
          Alcotest.test_case "gmean basic" `Quick test_gmean_basic;
          Alcotest.test_case "gmean non-positive" `Quick test_gmean_rejects_nonpositive;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "acc" `Quick test_acc;
          Alcotest.test_case "acc merge" `Quick test_acc_merge;
          qtest prop_gmean_between_min_max;
          qtest prop_mean_scale;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basic" `Quick test_hist_basic;
          Alcotest.test_case "bad bounds" `Quick test_hist_bad_bounds;
          Alcotest.test_case "quantile" `Quick test_hist_quantile;
          Alcotest.test_case "p999" `Quick test_hist_p999;
          qtest prop_hist_quantile_monotone;
          Alcotest.test_case "merge" `Quick test_hist_merge;
        ] );
      ( "table",
        [
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "ragged rejected" `Quick test_table_ragged_rejected;
        ] );
      ( "json",
        [
          qtest prop_json_roundtrip;
          Alcotest.test_case "quote" `Quick test_json_quote;
          Alcotest.test_case "decode" `Quick test_json_decode;
          Alcotest.test_case "rejects" `Quick test_json_rejects;
          Alcotest.test_case "committed BENCH files" `Quick
            test_json_bench_files;
        ] );
    ]
