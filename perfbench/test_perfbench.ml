(* Tests of the benchmark's own logic: the knee search against synthetic
   monotone predicates, metric naming, percentile reportability and the
   failed-fraction arithmetic. *)

open Perfbench_core

let check_knee ~true_knee ~start ~ceiling ~resolution =
  let k = Knee.search ~start ~ceiling ~resolution (fun r -> r <= true_knee) in
  Alcotest.(check bool) "bracketed" true k.Knee.bracketed;
  Alcotest.(check bool) "knee passes" true (k.Knee.knee <= true_knee);
  (* the failing upper end of the final bracket lies within resolution *)
  Alcotest.(check bool)
    "within resolution" true
    (true_knee -. k.Knee.knee <= resolution *. k.Knee.knee +. 1e-9)

let knee_brackets () =
  List.iter
    (fun true_knee ->
      check_knee ~true_knee ~start:4_000.0 ~ceiling:1_024_000.0 ~resolution:(1.0 /. 32.0))
    [ 4_000.0; 5_000.0; 36_500.0; 64_000.0; 127_999.0; 500_000.0 ]

let knee_probes_are_few () =
  let k =
    Knee.search ~start:4_000.0 ~ceiling:1_024_000.0 ~resolution:(1.0 /. 32.0)
      (fun r -> r <= 100_000.0)
  in
  (* 6 doublings to 256k, then log2(32) + 1 bisection steps at most *)
  Alcotest.(check bool) "probe count" true (List.length k.Knee.probes <= 13);
  Alcotest.(check (float 1e-6)) "first probe is the start" 4_000.0 (fst (List.hd k.Knee.probes))

let knee_runs_off_top () =
  let k = Knee.search ~start:1.0 ~ceiling:64.0 ~resolution:0.05 (fun _ -> true) in
  Alcotest.(check bool) "not bracketed" false k.Knee.bracketed;
  Alcotest.(check (float 1e-9)) "knee is the last passing rate" 64.0 k.Knee.knee

let knee_fails_at_start () =
  let k = Knee.search ~start:10.0 ~ceiling:100.0 ~resolution:0.05 (fun _ -> false) in
  Alcotest.(check bool) "not bracketed" false k.Knee.bracketed;
  Alcotest.(check (float 1e-9)) "no passing rate" 0.0 k.Knee.knee

let knee_rejects_coarse_resolution () =
  Alcotest.check_raises "resolution 0.1"
    (Invalid_argument "Knee.search: resolution must lie in (0, 0.1)") (fun () ->
      ignore (Knee.search ~start:1.0 ~ceiling:8.0 ~resolution:0.1 (fun _ -> true)))

let metric_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Metric.valid_name n))
    [ "knee_ops_s"; "read_p99_ms.high"; "simnet.cpu_util.learner"; "wall.us_per_msg.acceptor" ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (Metric.valid_name n))
    [ ""; ".lead"; "_lead"; "has space"; "slash/x"; String.make 65 'a' ];
  Alcotest.(check bool) "unit 1/s" true (Metric.valid_unit "1/s");
  Alcotest.(check bool) "empty unit" false (Metric.valid_unit "");
  Alcotest.check_raises "bad name raises" (Invalid_argument "Metric.make: bad name a b")
    (fun () -> ignore (Metric.make "a b" "ms" 1.0))

let result_line_shape () =
  let line =
    Metric.result_line ~correct:true ~attempted:10 ~failed:0
      [ Metric.make "latency_ms" "ms" 1.25; Metric.make "setup_s" "s" 0.1 ]
  in
  Alcotest.(check string)
    "line"
    "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"latency_ms\": \
     {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.1, \"unit\": \"s\"}}}"
    line;
  Alcotest.(check (float 0.0)) "number round-trips" (1.0 /. 3.0)
    (float_of_string (Metric.number (1.0 /. 3.0)))

let percentile_needs_ten_beyond () =
  let a n = Array.init n float_of_int in
  (* nearest rank below: index floor (q (n-1)), with n-1-index samples above *)
  Alcotest.(check (option (float 0.0))) "p99 of 1000" (Some 989.0) (Tail.percentile (a 1000) 0.99);
  Alcotest.(check (option (float 0.0))) "p99 of 902" (Some 891.0) (Tail.percentile (a 902) 0.99);
  Alcotest.(check (option (float 0.0))) "p99 of 901" None (Tail.percentile (a 901) 0.99);
  Alcotest.(check (option (float 0.0))) "p50 of 20" (Some 9.0) (Tail.percentile (a 20) 0.5);
  Alcotest.(check (option (float 0.0))) "p50 of 19" None (Tail.percentile (a 19) 0.5);
  Alcotest.(check (option (float 0.0))) "empty" None (Tail.percentile [||] 0.5)

let count_within () =
  let s = [| 1.0; 2.0; 2.0; 5.0; 5.0; 7.0 |] in
  Alcotest.(check int) "<= 5" 5 (Tail.count_within s 5.0);
  Alcotest.(check int) "<= 0" 0 (Tail.count_within s 0.0);
  Alcotest.(check int) "<= 9" 6 (Tail.count_within s 9.0);
  Alcotest.(check (float 0.0)) "median odd" 2.0 (Tail.median_of [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "median even" 2.5 (Tail.median_of [ 4.0; 1.0; 2.0; 3.0 ])

let failed_frac () =
  Alcotest.(check (float 1e-12)) "none failed" 0.0 (Tail.failed_frac ~generated:100 ~answered:100);
  Alcotest.(check (float 1e-12)) "a quarter" 0.25 (Tail.failed_frac ~generated:400 ~answered:300);
  Alcotest.check_raises "nothing generated"
    (Invalid_argument "Tail.failed_frac: nothing generated") (fun () ->
      ignore (Tail.failed_frac ~generated:0 ~answered:0));
  Alcotest.check_raises "over-answered"
    (Invalid_argument "Tail.failed_frac: answered outside [0, generated]") (fun () ->
      ignore (Tail.failed_frac ~generated:3 ~answered:4))

let () =
  Alcotest.run "perfbench"
    [ ( "knee",
        [ Alcotest.test_case "brackets monotone predicates" `Quick knee_brackets;
          Alcotest.test_case "few probes" `Quick knee_probes_are_few;
          Alcotest.test_case "runs off the top" `Quick knee_runs_off_top;
          Alcotest.test_case "fails at start" `Quick knee_fails_at_start;
          Alcotest.test_case "resolution finer than a tenth" `Quick
            knee_rejects_coarse_resolution ] );
      ( "metrics",
        [ Alcotest.test_case "names and units" `Quick metric_names;
          Alcotest.test_case "result line" `Quick result_line_shape ] );
      ( "tails",
        [ Alcotest.test_case "ten samples beyond" `Quick percentile_needs_ten_beyond;
          Alcotest.test_case "count within and median" `Quick count_within;
          Alcotest.test_case "failed_frac" `Quick failed_frac ] ) ]
