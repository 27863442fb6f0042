(* The full-stack KV benchmark: one workload per invocation, driven
   open-loop from a seed through the whole [Kv] stack (client proxy,
   batcher, ring, Multi-Ring merge, executor, btree).

     kvbench.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>
                 [--rev <source digest>]

   Two kinds of speed are measured: the modelled system's, in virtual time
   (knee and tails), and the simulator's, in wall-clock time.  With
   [--trace 0] every run is untraced and the end-to-end metrics are
   reported; with [--trace 1] a traced run (see {!Probe}) at the same seed
   and rates gives the per-layer metrics.  Every output check — replicas
   agree after every run, the high-rate history is linearizable, the knee
   was bracketed, the traced run's virtual-time results equal the
   untraced run's — feeds [correct], and the process exits 1 when one
   fails.  The last stdout line is the JSON result. *)

open Perfbench_core
module L = Sim.Stats.Latency
module W = Workloads

let wall = Unix.gettimeofday

(* --- one run ---------------------------------------------------------------- *)

type verdict = Unchecked | Linearizable | Violation | Cut_off

type run = {
  rate : float;
  dur : float;  (** virtual seconds of arrivals *)
  generated : int;
  answered : int;
  classes : (string * float array) list;  (** class -> ascending ms samples *)
  agree : bool;  (** every replica's state fingerprint is equal *)
  verdict : verdict;
  check_wall_s : float;
  run_wall_s : float;  (** wall-clock seconds inside [Sim.Engine.run] *)
  window_answered : int;  (** ops answered while arrivals lasted *)
  window_wall_s : float;  (** wall-clock seconds of that part of the run *)
  minor_words : float;
  counters : (string * int) list;
  cpu : (Simnet.proc * float) list;  (** busy % over the arrival window *)
  bytes_sent : int;
  net_drops : int;
  vt_digest : Digest.t;  (** every virtual-time observable of the run *)
  probe : Probe.t option;
}

(* All samples of a recorder, ascending ([Latency.percentile] indexes the
   sorted copy at [floor (p (n-1))]). *)
let sorted_ms l =
  let n = L.count l in
  if n = 0 then [||]
  else if n = 1 then [| 1e3 *. L.percentile l 0.5 |]
  else
    Array.init n (fun i ->
        1e3 *. L.percentile l ((float_of_int i +. 0.5) /. float_of_int (n - 1)))

exception Deadline

(* [f ()], or [None] when it runs past [secs] wall-clock seconds. *)
let with_deadline secs f =
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Deadline)) in
  ignore (Unix.alarm secs);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm old)
    (fun () -> match f () with v -> Some v | exception Deadline -> None)

let run_at (w : W.t) ~seed ~rate ~dur ?(traced = false) ?(history = false) () =
  let engine = Sim.Engine.create () in
  let net = Simnet.create engine (Sim.Rng.create seed) in
  let cfg =
    { Kv.default_config with
      n_replicas = W.n_replicas;
      n_workers = W.n_workers;
      leases = w.leases;
      record_history = history }
  in
  let probe = if traced then Some (Probe.create net ~n_replicas:W.n_replicas) else None in
  let sys =
    match probe with
    | Some p ->
        Kv.create ~on_broadcast:(Probe.on_broadcast p) ~on_deliver:(Probe.on_deliver p)
          net cfg ~n_clients:W.n_clients
    | None -> Kv.create net cfg ~n_clients:W.n_clients
  in
  Option.iter Probe.attach probe;
  let wl =
    Kv.Ycsb.workload w.preset
      (Sim.Rng.create ((seed * 7919) + 104_729))
      ~rate:(Smr.Workload.Open_loop.Constant rate)
  in
  Kv.start_open sys wl ~until:dur;
  let words0 = Gc.minor_words () in
  let t0 = wall () in
  Sim.Engine.run engine ~until:dur;
  let window_wall_s = wall () -. t0 in
  let slo = Kv.slo sys in
  let window_answered =
    List.fold_left
      (fun a c -> a + Option.fold ~none:0 ~some:L.count (Kv.Slo.latency slo c))
      0 (Kv.Slo.classes slo)
  in
  Sim.Engine.run engine ~until:(dur +. W.drain_s);
  let run_wall_s = wall () -. t0 in
  let minor_words = Gc.minor_words () -. words0 in
  let classes =
    List.filter_map
      (fun c -> Option.map (fun l -> (c, sorted_ms l)) (Kv.Slo.latency slo c))
      (Kv.Slo.classes slo)
  in
  let answered = List.fold_left (fun a (_, s) -> a + Array.length s) 0 classes in
  let fps = List.init W.n_replicas (Kv.state_fingerprint_at sys) in
  let verdict, check_wall_s =
    if history then begin
      let t0 = wall () in
      let v =
        match with_deadline W.check_deadline_s (fun () -> Kv.check_history sys) with
        | Some true -> Linearizable
        | Some false -> Violation
        | None -> Cut_off
      in
      (v, wall () -. t0)
    end
    else (Unchecked, 0.0)
  in
  let procs = Probe.procs net in
  let cpu =
    List.map
      (fun p ->
        (p, Sim.Stats.Busy.utilization (Simnet.cpu_busy (Simnet.proc_node p)) ~from:0.0
              ~till:dur))
      procs
  in
  let bytes = List.map (fun p -> Sim.Stats.Rate.bytes (Simnet.sent_rate p)) procs in
  let counters = Kv.counters sys in
  let generated = Smr.Workload.Open_loop.generated wl in
  let vt_digest =
    Digest.string
      (Marshal.to_string
         ( classes,
           counters,
           generated,
           fps,
           bytes,
           List.map snd cpu,
           List.map Simnet.drops procs,
           Sim.Engine.now engine )
         [])
  in
  { rate;
    dur;
    generated;
    answered;
    classes;
    agree = List.for_all (( = ) (List.hd fps)) fps;
    verdict;
    check_wall_s;
    run_wall_s;
    window_answered;
    window_wall_s;
    minor_words;
    counters;
    cpu;
    bytes_sent = List.fold_left ( + ) 0 bytes;
    net_drops = List.fold_left (fun a p -> a + Simnet.drops p) 0 procs;
    vt_digest;
    probe }

let counter r name = Option.value ~default:0 (List.assoc_opt name r.counters)

(* Tail at [q] of the classes [only] selects, pooled into one distribution:
   a fallback class too thin for a reportable tail of its own still
   weighs in, and the reported tail never switches class with the seed. *)
let pooled r ~only =
  let s =
    Array.concat
      (List.filter_map (fun (c, s) -> if only c then Some s else None) r.classes)
  in
  Array.sort Float.compare s;
  s

let is_read c = c = "read" || c = "read-local"
let is_write c = c = "update"

(* The knee predicate: every generated op answered, and the worst class's
   raw p99 within the limit (too few samples for a reportable p99 still
   read as their near-maximum, so a thin class cannot pass by hiding). *)
let passes r =
  r.answered = r.generated
  && List.for_all
       (fun (_, s) ->
         Array.length s = 0
         || s.(int_of_float (0.99 *. float_of_int (Array.length s - 1))) <= W.limit_ms)
       r.classes

let goodput r =
  let within =
    List.fold_left (fun a (_, s) -> a + Tail.count_within s W.limit_ms) 0 r.classes
  in
  float_of_int within /. r.dur

(* Simulator speed while arrivals last; the drain's idle timers are left
   out so short runs measure the loaded stack. *)
let sim_ops_per_wall_s r = float_of_int r.window_answered /. r.window_wall_s

(* --- reporting ---------------------------------------------------------------- *)

let checks = ref []

let check name ok =
  checks := (name, ok) :: !checks;
  if not ok then Printf.printf "CHECK FAILED: %s\n%!" name

let metrics = ref []
let sample_counts = ref []

let print_metric ?n name unit_ value =
  Printf.printf "  %-34s %14.6g %-6s%s\n%!" name value unit_
    (match n with Some n -> Printf.sprintf " (n=%d)" n | None -> "")

(* Print a metric and record it for the result line, with the sample
   count behind it when it is a statistic. *)
let report ?n name unit_ value =
  metrics := Metric.make name unit_ value :: !metrics;
  Option.iter (fun n -> sample_counts := (name, n) :: !sample_counts) n;
  print_metric ?n name unit_ value

(* What becomes of a tail metric: printed only, or recorded too, where a
   tail without enough samples is either left out or (per-layer, since the
   result line must carry every name) recorded as 0. *)
type keep = Print_only | Record | Record_or_zero

let report_tail keep name (v, n) =
  match (v, keep) with
  | Some v, (Record | Record_or_zero) -> report ~n name "ms" v
  | Some v, Print_only -> print_metric ~n name "ms" v
  | None, _ ->
      Printf.printf "  %-34s %14s %-6s (n=%d)\n%!" name "n/a" "ms" n;
      if keep = Record_or_zero then begin
        metrics := Metric.make name "ms" 0.0 :: !metrics;
        sample_counts := (name, n) :: !sample_counts
      end

let tail_of ~only r q =
  let s = pooled r ~only in
  (Tail.percentile s q, Array.length s)

let class_table r =
  List.iter
    (fun (c, s) ->
      let p q =
        match Tail.percentile s q with Some v -> Printf.sprintf "%.3f" v | None -> "n/a"
      in
      Printf.printf "    %-11s n=%-8d p50=%-9s p99=%-9s max=%.3f ms\n" c (Array.length s)
        (p 0.5) (p 0.99)
        (if Array.length s = 0 then 0.0 else s.(Array.length s - 1)))
    r.classes

let describe label r =
  Printf.printf "run %-9s %9.0f ops/s offered: %d generated, %d answered, %.2f s wall\n"
    label r.rate r.generated r.answered r.run_wall_s;
  class_table r

(* Replica agreement is checked after every run. *)
let checked label r =
  check (Printf.sprintf "%s: replica fingerprints agree at %.0f ops/s" label r.rate) r.agree;
  r

(* Linearizability of a history recorded at the high rate.  The checker's
   search blows up on rare histories (see [W.check_deadline_s]); an attempt cut
   off at the deadline is inconclusive and the check moves on to the
   history of the next derived seed.  A violation fails at once, and so
   does running out of attempts. *)
let history_check (w : W.t) ~seed =
  let rec go k =
    let r =
      checked "history"
        (run_at w ~seed:(seed + (1_000_003 * k)) ~rate:w.high ~dur:w.history_s ~history:true ())
    in
    if r.verdict = Cut_off && k + 1 < W.history_attempts then begin
      Printf.printf "history attempt %d: check cut off after %d s, inconclusive\n" (k + 1)
        W.check_deadline_s;
      go (k + 1)
    end
    else begin
      check "high-rate history is linearizable" (r.verdict = Linearizable);
      Printf.printf "history: %d ops checked in %.3f s (attempt %d)\n" r.answered r.check_wall_s
        (k + 1);
      r
    end
  in
  go 0

(* --- end-to-end (untraced) ------------------------------------------------------ *)

(* Wall-clock time of one [Kv.create], B+-tree preload included. *)
let setup_once () =
  Gc.full_major ();
  let engine = Sim.Engine.create () in
  let net = Simnet.create engine (Sim.Rng.create 1) in
  let t0 = wall () in
  let cfg = { Kv.default_config with n_workers = W.n_workers } in
  ignore (Kv.create net cfg ~n_clients:W.n_clients);
  wall () -. t0

let end_to_end (w : W.t) ~seed ~seconds =
  let started = wall () in
  (* Simulator speed and set-up time: short high-rate runs, one after each
     knee probe and tail run and then repeated to the end of the time
     budget, each beside a set-up and between two passes of the
     calibration loop that rescale both to the reference machine (see
     {!Calib}).  The overload and history runs, whose heaps are largest,
     come last. *)
  let speeds = ref [] and setups = ref [] and raw = ref [] in
  let first = ref None in
  let speed_run () =
    let before = Calib.time () in
    let setup = setup_once () in
    Gc.full_major ();
    let r = checked "speed" (run_at w ~seed ~rate:w.high ~dur:W.speed_s ()) in
    (* The quicker of the two calibration passes around the pair. *)
    let scale = Float.min before (Calib.time ()) /. Calib.nominal_s in
    setups := (setup /. scale) :: !setups;
    (match !first with
    | None -> first := Some r.vt_digest
    | Some d -> check "repeated high-rate run is deterministic" (r.vt_digest = d));
    raw := sim_ops_per_wall_s r :: !raw;
    speeds := (sim_ops_per_wall_s r *. scale) :: !speeds
  in
  let interleaved r =
    speed_run ();
    r
  in
  speed_run ();
  Printf.printf "knee search: start %.0f ops/s, x2 until a rate fails, bisect to 1/%.0f\n%!"
    W.knee_start (1.0 /. W.knee_resolution);
  let knee =
    Knee.search ~start:W.knee_start ~ceiling:W.knee_ceiling ~resolution:W.knee_resolution
      (fun rate ->
        let r = interleaved (checked "knee probe" (run_at w ~seed ~rate ~dur:W.probe_s ())) in
        let ok = passes r in
        Printf.printf "  probe %9.0f ops/s  %s  answered %d/%d  (%.2f s wall)\n%!" rate
          (if ok then "pass" else "FAIL") r.answered r.generated r.run_wall_s;
        ok)
  in
  Printf.printf "knee_bracketed = %b (%d probes)\n" knee.bracketed (List.length knee.probes);
  check "knee search bracketed the knee" knee.bracketed;
  let low = interleaved (checked "low" (run_at w ~seed ~rate:w.low ~dur:W.tail_s ())) in
  let high = interleaved (checked "high" (run_at w ~seed ~rate:w.high ~dur:W.tail_s ())) in
  while List.length !speeds < W.min_speed_runs || wall () -. started < seconds do
    speed_run ()
  done;
  let over = checked "overload" (run_at w ~seed ~rate:w.overload ~dur:W.overload_s ()) in
  List.iter (fun (l, r) -> describe l r) [ ("low", low); ("high", high); ("overload", over) ];
  ignore (history_check w ~seed);
  let generated = low.generated + high.generated in
  let answered = low.answered + high.answered in
  Printf.printf "end-to-end metrics (%s, seed %d):\n" w.name seed;
  report "knee_ops_s" "ops/s" knee.knee;
  report_tail Record "read_p50_ms.low" (tail_of ~only:is_read low 0.5);
  report_tail Record "read_p99_ms.low" (tail_of ~only:is_read low 0.99);
  report_tail Record "read_p99_ms.high" (tail_of ~only:is_read high 0.99);
  report "completed_ops_s.overload" "ops/s" (float_of_int over.answered /. over.dur);
  report ~n:(List.length !speeds) "sim_ops_per_wall_s" "ops/s" (Tail.median_of !speeds);
  Printf.printf "    (unscaled: median %.0f, runs %s)\n" (Tail.median_of !raw)
    (String.concat " " (List.rev_map (Printf.sprintf "%.0f") !raw));
  report ~n:(List.length !setups) "setup_s" "s" (Tail.median_of !setups);
  report "peak_heap_mb" "MB"
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
  Printf.printf "  (not in the result line: see perfbench/README.md)\n";
  report_tail Print_only "write_p50_ms.low" (tail_of ~only:is_write low 0.5);
  report_tail Print_only "write_p99_ms.low" (tail_of ~only:is_write low 0.99);
  report_tail Print_only "write_p99_ms.high" (tail_of ~only:is_write high 0.99);
  print_metric "goodput_ops_s.overload" "ops/s" (goodput over);
  print_metric "failed_frac" "frac" (Tail.failed_frac ~generated ~answered);
  Printf.printf "generator lateness: 0 (virtual time)\n";
  (generated, answered)

(* --- per-layer (traced) --------------------------------------------------------- *)

let busiest (r : run) role =
  List.fold_left
    (fun (bp, bu) (p, u) ->
      if Probe.role_of_name (Simnet.proc_name p) = role && u > bu then (Simnet.proc_name p, u)
      else (bp, bu))
    ("-", 0.0) r.cpu

let span_tails r =
  let p = Option.get r.probe in
  [ ("ring.order", sorted_ms p.Probe.order);
    ("kv.reply", sorted_ms p.Probe.reply);
    ("kv.local_read", sorted_ms p.Probe.local_read) ]

let per_layer (w : W.t) ~seed ~seconds =
  let started = wall () in
  let pair ?(dur = W.tail_s) rate label =
    Gc.compact ();
    let u = checked label (run_at w ~seed ~rate ~dur ()) in
    Gc.compact ();
    let t = checked (label ^ " traced") (run_at w ~seed ~rate ~dur ~traced:true ()) in
    check
      (Printf.sprintf "%s: traced virtual-time results equal untraced" label)
      (u.vt_digest = t.vt_digest);
    (u, t)
  in
  let _, low_t = pair w.low "low" in
  let high_u, high_t = pair w.high "high" in
  describe "high" high_t;
  let hist = history_check w ~seed in
  (* Tracing overhead: short untraced/traced high-rate pairs. *)
  let ratios = ref [ high_t.run_wall_s /. high_u.run_wall_s ] in
  while List.length !ratios < W.min_speed_runs || wall () -. started < seconds do
    let u, t = pair ~dur:W.speed_s w.high "overhead" in
    ratios := (t.run_wall_s /. u.run_wall_s) :: !ratios
  done;
  let p = Option.get high_t.probe in
  let ops = float_of_int high_t.answered in
  let pct name s q = report_tail Record_or_zero name (Tail.percentile s q, Array.length s) in
  let order = sorted_ms p.Probe.order and reply = sorted_ms p.Probe.reply in
  let lag = sorted_ms p.Probe.lag and local = sorted_ms p.Probe.local_read in
  let reads = Array.length (pooled high_t ~only:is_read) in
  let local_reads = counter high_t "kv_local_reads" in
  let nacks = counter high_t "kv_local_nacks" in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  Printf.printf "per-layer metrics (%s, seed %d, %.0f ops/s):\n" w.name seed w.high;
  report "sim.minor_words_per_op" "words" (high_t.minor_words /. ops);
  report "sim.residual_wall_frac" "frac"
    (1.0 -. (Probe.handler_wall_s p /. high_t.run_wall_s));
  report "simnet.msgs_per_op" "count" (float_of_int (Probe.msgs p) /. ops);
  report "simnet.bytes_per_op" "B" (float_of_int high_t.bytes_sent /. ops);
  List.iter
    (fun role ->
      let name, u = busiest high_t role in
      report ("simnet.cpu_util." ^ Probe.role_name role) "%" u;
      Printf.printf "    (busiest %s: %s)\n" (Probe.role_name role) name)
    Probe.roles;
  report "simnet.drops" "count" (float_of_int high_t.net_drops);
  pct "ring.order_p50_ms" order 0.5;
  pct "ring.order_p99_ms" order 0.99;
  report "ring.items_per_learner_msg" "count"
    (ratio p.Probe.delivered (Probe.learner_ring_msgs p));
  pct "merge.replica_lag_p99_ms" lag 0.99;
  pct "kv.reply_p50_ms" reply 0.5;
  pct "kv.reply_p99_ms" reply 0.99;
  report "kv.local_read_frac" "frac" (ratio local_reads reads);
  report "kv.local_nack_frac" "frac" (ratio nacks (local_reads + nacks));
  pct "kv.local_read_p50_ms" local 0.5;
  pct "kv.local_read_p99_ms" local 0.99;
  report "kv.lease_invalidations_per_s" "1/s"
    (float_of_int (counter high_t "kv_lease_invalidations") /. high_t.dur);
  report "kv.deadline_responses" "count" (float_of_int (counter high_t "kv_deadline_responses"));
  report "kv.read_timeouts" "count" (float_of_int (counter high_t "kv_read_timeouts"));
  List.iter
    (fun role ->
      let rn = Probe.role_name role in
      let s = Probe.self_s p role in
      report ("wall.self_s." ^ rn) "s" s;
      report ("wall.us_per_msg." ^ rn) "us"
        (1e6 *. s /. float_of_int (max 1 (Probe.role_msgs p role))))
    Probe.roles;
  report "check.wall_s" "s" hist.check_wall_s;
  report ~n:(List.length !ratios) "trace.overhead_frac" "frac" (Tail.median_of !ratios -. 1.0);
  (* The span whose p99 grows most from low to high names the bottleneck. *)
  let growth =
    List.filter_map
      (fun ((name, hi), (_, lo)) ->
        match (Tail.percentile hi 0.99, Tail.percentile lo 0.99) with
        | Some h, Some l -> Some (name, h -. l)
        | _ -> None)
      (List.combine (span_tails high_t) (span_tails low_t))
  in
  let top = List.fold_left (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv)) in
  let bottleneck = top ("-", neg_infinity) growth in
  let cpu_name, cpu_u =
    top ("-", 0.0) (List.map (fun (p, u) -> (Simnet.proc_name p, u)) high_t.cpu)
  in
  Printf.printf "bottleneck: %s (p99 +%.3f ms low->high); busiest CPU: %s %.1f%%\n"
    (fst bottleneck) (snd bottleneck) cpu_name cpu_u;
  (low_t.generated + high_t.generated, low_t.answered + high_t.answered)

(* --- main ---------------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: kvbench.exe --workload <name> --seed <n> --seconds <s> --trace <0|1> [--rev <id>]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1) and trace = ref (-1) in
  let rev = ref "unknown" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "");
      ("--seed", Arg.Set_int seed, "");
      ("--seconds", Arg.Set_int seconds, "");
      ("--trace", Arg.Set_int trace, "");
      ("--rev", Arg.Set_string rev, "") ]
  in
  (try Arg.parse_argv Sys.argv spec (fun _ -> usage ()) ""
   with Arg.Bad _ | Arg.Help _ -> usage ());
  let w = match W.find !workload with Some w -> w | None -> usage () in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let seconds = float_of_int !seconds in
  Printf.printf "workload %s: %s\n" w.name w.why;
  let generated, answered =
    if !trace = 0 then end_to_end w ~seed:!seed ~seconds else per_layer w ~seed:!seed ~seconds
  in
  let correct = List.for_all snd !checks in
  let json_list f l = "[" ^ String.concat ", " (List.map f l) ^ "]" in
  Printf.printf "provenance: %s\n"
    (Metric.json_object
       [ ("rev", Printf.sprintf "%S" !rev);
         ("workload", Printf.sprintf "%S" w.name);
         ("seed", string_of_int !seed);
         ("trace", string_of_int !trace);
         ( "config",
           Metric.json_object
             [ ("preset", Printf.sprintf "%S" (Kv.Ycsb.name w.preset));
               ("leases", string_of_bool w.leases);
               ("replicas", string_of_int W.n_replicas);
               ("workers", string_of_int W.n_workers);
               ("clients", string_of_int W.n_clients);
               ( "rates_ops_s",
                 json_list Metric.number [ w.low; w.high; w.overload ] );
               ("limit_ms", Metric.number W.limit_ms);
               ( "arrival_s",
                 Metric.json_object
                   [ ("probe", Metric.number W.probe_s);
                     ("speed", Metric.number W.speed_s);
                     ("tail", Metric.number W.tail_s);
                     ("overload", Metric.number W.overload_s);
                     ("history", Metric.number w.history_s) ] );
               ("drain_s", Metric.number W.drain_s) ] );
         ( "samples",
           Metric.json_object
             (List.rev_map (fun (n, c) -> (n, string_of_int c)) !sample_counts) );
         ( "layer_map",
           Metric.json_object
             (List.map (fun (l, e) -> (l, Printf.sprintf "%S" e)) w.layer_map) ) ]);
  Printf.printf "checks: %d passed, %d failed\n"
    (List.length (List.filter snd !checks))
    (List.length (List.filter (fun (_, ok) -> not ok) !checks));
  print_endline
    (Metric.result_line ~correct ~attempted:generated ~failed:(generated - answered)
       (List.rev !metrics));
  exit (if correct then 0 else 1)
