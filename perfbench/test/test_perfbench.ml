(* Tests of the benchmark's own pieces: seeded request generation, the
   tail-percentile rule, and the metric registry. *)

open Perfbench

let take n f = List.init n (fun _ -> Option.get (f ()))

let miss_lines ~seed =
  let vs = Gen.miss_variants ~seed in
  List.concat_map
    (fun conn -> List.map Gen.variant_line (take 500 (Gen.miss_stream vs ~conns:2 ~conn)))
    [ 0; 1 ]

let test_seeded () =
  Alcotest.(check (list string)) "same seed, same lines" (miss_lines ~seed:7) (miss_lines ~seed:7);
  Alcotest.(check bool) "another seed, other lines" true (miss_lines ~seed:7 <> miss_lines ~seed:8)

let test_miss_distinct () =
  let all = Array.to_list (Array.map Gen.variant_line (Gen.miss_variants ~seed:3)) in
  Alcotest.(check int) "whole option space distinct" (List.length all)
    (List.length (List.sort_uniq compare all));
  let drawn = miss_lines ~seed:3 in
  Alcotest.(check int) "both connections' draws distinct" (List.length drawn)
    (List.length (List.sort_uniq compare drawn));
  (* Runs use far fewer than the first 20,000 requests. *)
  let vs = Array.sub (Gen.miss_variants ~seed:3) 0 20_000 in
  let ooo = Array.fold_left (fun acc v -> match v.Gen.v_core with Gen.Ooo _ -> acc + 1 | Gen.Inorder -> acc) 0 vs in
  let share = float_of_int ooo /. float_of_int (Array.length vs) in
  Alcotest.(check bool) "about 30% out-of-order" true (share > 0.27 && share < 0.33)

(* Every block of the serve-miss stream gives each kernel each issue
   width exactly once. *)
let test_miss_blocks () =
  let vs = Gen.miss_variants ~seed:5 in
  let block = Array.to_list (Array.sub vs Gen.block_size Gen.block_size) in
  let pairs = List.sort_uniq compare (List.map (fun v -> (v.Gen.v_loop, v.Gen.v_issue)) block) in
  Alcotest.(check int) "kernel x issue pairs in a block" Gen.block_size (List.length pairs);
  Alcotest.(check int) "block size" (40 * 16) Gen.block_size

let benchmark_json () =
  let module J = Impact_svc.Json in
  Result.get_ok (J.parse (Option.get (Host.read_file "../../BENCHMARK.json")))

(* The option space must outlast a run at ten times the highest rate
   measured (273 requests a second on a 2-vCPU Xeon), so that a faster
   compiler or a wider host still draws without replacement. Past the
   end, each connection's stream stops instead of failing. *)
let test_miss_space () =
  let module J = Impact_svc.Json in
  let seconds = match J.member "run_seconds" (benchmark_json ()) with Some (J.Int n) -> n | _ -> 0 in
  for seed = 1 to 20 do
    Alcotest.(check bool) (Printf.sprintf "seed %d: space covers 10x the measured rate" seed) true
      (Array.length (Gen.miss_variants ~seed) >= 10 * 273 * seconds)
  done;
  let vs = Gen.miss_variants ~seed:1 in
  let next = Gen.miss_stream vs ~conns:2 ~conn:1 in
  let drawn = ref 0 in
  while next () <> None do incr drawn done;
  Alcotest.(check int) "a connection's share, then the end" (Array.length vs / 2) !drawn;
  Alcotest.(check bool) "stays ended" true (next () = None)

let test_tail () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  let t = Stats.tail (xs 1000) in
  Alcotest.(check (float 1e-9)) "n=1000: p99" 0.99 t.Stats.t_q;
  Alcotest.(check (float 1e-9)) "n=1000: the 990th value" 990.0 t.Stats.t_value;
  Alcotest.(check int) "n=1000: 10 beyond" 10 t.Stats.t_beyond;
  let t = Stats.tail (xs 5000) in
  Alcotest.(check (float 1e-9)) "n=5000: capped at p99" 0.99 t.Stats.t_q;
  Alcotest.(check int) "n=5000: 50 beyond" 50 t.Stats.t_beyond;
  let t = Stats.tail (xs 120) in
  Alcotest.(check int) "n=120: exactly 10 beyond" 10 t.Stats.t_beyond;
  Alcotest.(check (float 1e-9)) "n=120: the 110th value" 110.0 t.Stats.t_value;
  let t = Stats.tail (xs 40) in
  Alcotest.(check (float 1e-9)) "n=40: p75" 0.75 t.Stats.t_q;
  Alcotest.(check int) "n=40: 10 beyond" 10 t.Stats.t_beyond;
  let t = Stats.tail (List.rev (xs 12)) in
  Alcotest.(check (float 1e-9)) "n=12: falls back to the median" 0.5 t.Stats.t_q;
  Alcotest.(check (float 1e-9)) "unsorted input" 6.0 t.Stats.t_value

let test_quartiles () =
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-9))) "python quartiles" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ];
  Alcotest.(check (float 1e-9)) "even median" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ])

let test_names () =
  List.iter
    (fun (name, unit) ->
      Alcotest.(check bool) ("valid name " ^ name) true (Metrics.valid_name name);
      Alcotest.(check bool) ("valid unit " ^ unit) true
        (String.for_all
           (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true | _ -> false)
           unit))
    (Metrics.end_to_end @ Metrics.per_layer);
  Alcotest.(check bool) "rejects a space" false (Metrics.valid_name "wall s");
  Alcotest.(check bool) "rejects a leading dot" false (Metrics.valid_name ".wall")

(* BENCHMARK.json must name exactly the registry's metrics and units. *)
let test_benchmark_json () =
  let module J = Impact_svc.Json in
  let doc = benchmark_json () in
  let listed key =
    match J.member key doc with
    | Some (J.List l) ->
      List.map
        (fun m ->
          match (J.member "name" m, J.member "unit" m) with
          | Some (J.Str n), Some (J.Str u) -> (n, u)
          | _ -> ("?", "?"))
        l
    | _ -> []
  in
  Alcotest.(check (list (pair string string))) "end_to_end" Metrics.end_to_end (listed "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Metrics.per_layer (listed "per_layer")

let () =
  Alcotest.run "perfbench"
    [
      ( "gen",
        [
          Alcotest.test_case "seeded draws" `Quick test_seeded;
          Alcotest.test_case "serve-miss draws distinct" `Quick test_miss_distinct;
          Alcotest.test_case "serve-miss blocks stratified" `Quick test_miss_blocks;
          Alcotest.test_case "serve-miss option space" `Quick test_miss_space;
        ] );
      ( "stats",
        [
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json;
        ] );
    ]
