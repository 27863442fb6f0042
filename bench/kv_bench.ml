(* `-- kv`: the replicated KV service end to end — client proxy → batcher
   → Multi-Ring ordered delivery → dependency-aware executor → btree —
   under the YCSB core workloads, with the lease read tier on and off.
   Three slices:

   1. a preset sweep (YCSB A-F) quoting per-class p50/p99/p999;
   2. a leases x workers grid on YCSB-A (update-heavy) and YCSB-C
      (read-only), the headline local-read comparison;
   3. a sustained-throughput ladder on YCSB-C: the highest offered rate
      whose read p99 stays inside a fixed budget, leases on vs off.

   A final verify slice replays a small history-recording run through the
   linearizability checker.  Every row records the busiest replica's
   learner-CPU and executor-worker utilisation, the two resources the read
   paths share.  Results go to stdout and BENCH_kv.json; CI
   gates on the leases-on read p99 beating leases-off on YCSB-C, the
   linearizability verdict and a throughput floor. *)

let out_file = "BENCH_kv.json"
let grid_rate = 2_000.0
let until = 1.0
let drain = 0.5
let p99_budget_ms = 5.0
let ladder_rates = [ 1_000.0; 2_000.0; 4_000.0; 8_000.0; 16_000.0; 32_000.0 ]

type run = {
  preset : Kv.Ycsb.preset;
  leases : bool;
  workers : int;
  rate : float;
  issued : int;
  drops : int;
  completed : int;
  ops_per_sec : float;
  local_reads : int;
  local_nacks : int;
  read_p50 : float;  (** worst read class, ms *)
  read_p99 : float;
  read_p999 : float;
  learner_cpu_pct : float;  (** busiest replica's learner CPU *)
  worker_util_pct : float;  (** busiest replica's executor workers *)
  rows : Kv.Slo.row list;
  table : string;
}

(* One open-loop run at a fixed offered rate; the drain window lets every
   deferred write response and read fallback land before meters are read. *)
let run_once ?(seed = 7) ~preset ~leases ~workers ~rate () =
  let engine = Sim.Engine.create () in
  let net = Simnet.create engine (Sim.Rng.create seed) in
  let config = { Kv.default_config with leases; n_workers = workers } in
  let sys = Kv.create net config ~n_clients:4 in
  let wl =
    Kv.Ycsb.workload preset
      (Sim.Rng.create (seed + 1))
      ~rate:(Smr.Workload.Open_loop.Constant rate)
  in
  Kv.start_open sys wl ~until;
  Sim.Engine.run engine ~until:(until +. drain);
  let slo = Kv.slo sys in
  let rows = Kv.Slo.rows slo in
  let completed = Kv.completed sys in
  (* Read-path tail: the worse of the local and ordered read classes, so a
     lease tier that serves most reads locally cannot hide the latency of
     the reads it strands on the fallback path. *)
  let read_rows =
    List.filter
      (fun (r : Kv.Slo.row) -> r.cls = "read" || r.cls = "read-local")
      rows
  in
  let worst f = List.fold_left (fun a r -> Float.max a (f r)) 0.0 read_rows in
  (* Which resource saturates: the busiest replica's learner CPU and
     executor workers over the arrival window. *)
  let busiest f =
    List.fold_left Float.max 0.0 (List.init config.n_replicas f)
  in
  let learner_cpu_pct =
    busiest (fun r ->
        Sim.Stats.Busy.utilization
          (Simnet.cpu_busy (Simnet.proc_node (Kv.replica_proc sys r)))
          ~from:0.0 ~till:until)
  in
  let worker_util_pct =
    busiest (fun replica -> Kv.worker_utilization sys ~replica ~from:0.0 ~till:until)
  in
  { preset;
    leases;
    workers;
    rate;
    issued = Kv.issued sys;
    drops = Kv.drops sys;
    completed;
    ops_per_sec = float_of_int completed /. until;
    local_reads = Kv.counter sys "kv_local_reads";
    local_nacks = Kv.counter sys "kv_local_nacks";
    read_p50 = worst (fun r -> r.Kv.Slo.p50_ms);
    read_p99 = worst (fun r -> r.Kv.Slo.p99_ms);
    read_p999 = worst (fun r -> r.Kv.Slo.p999_ms);
    learner_cpu_pct;
    worker_util_pct;
    rows;
    table = Kv.Slo.render slo }

let preset_sweep () =
  Util.header
    "YCSB presets (3 replicas, 2 workers, leases on, 2 kops/s offered)";
  List.map
    (fun preset ->
      let r = run_once ~preset ~leases:true ~workers:2 ~rate:grid_rate () in
      Printf.printf "%s — %s  (%.0f ops/s, %d local reads)\n%s\n"
        (Kv.Ycsb.name preset) (Kv.Ycsb.describe preset) r.ops_per_sec
        r.local_reads r.table;
      Util.snap
        (Printf.sprintf "kv/%s" (Kv.Ycsb.name preset))
        ~events_per_sec:r.ops_per_sec
        ~counters:[ ("local_reads", r.local_reads); ("drops", r.drops) ];
      r)
    Kv.Ycsb.all

let grid () =
  Util.header "Lease tier on/off x executor workers (YCSB-A and YCSB-C)";
  Printf.printf "%-7s %-6s %7s %12s %10s %10s %10s %10s\n" "preset" "leases"
    "workers" "ops/s" "local" "nacks" "p99(ms)" "p999(ms)";
  let cells = ref [] in
  List.iter
    (fun preset ->
      List.iter
        (fun leases ->
          List.iter
            (fun workers ->
              let r = run_once ~preset ~leases ~workers ~rate:grid_rate () in
              Printf.printf "%-7s %-6b %7d %12.0f %10d %10d %10.3f %10.3f\n"
                (Kv.Ycsb.name r.preset) r.leases r.workers r.ops_per_sec
                r.local_reads r.local_nacks r.read_p99 r.read_p999;
              Util.snap
                (Printf.sprintf "kv/grid/%s/%s/%dw" (Kv.Ycsb.name preset)
                   (if leases then "leases" else "ordered")
                   workers)
                ~events_per_sec:r.ops_per_sec
                ~counters:[ ("local_reads", r.local_reads) ];
              cells := r :: !cells)
            [ 1; 2; 4 ])
        [ true; false ])
    [ Kv.Ycsb.A; Kv.Ycsb.C ];
  List.rev !cells

(* Walk the offered-rate ladder until the read tail leaves the budget;
   the sustained rate is the last one inside it. *)
let ladder leases =
  let rec go sustained acc = function
    | [] -> (sustained, List.rev acc)
    | rate :: rest ->
        let r = run_once ~preset:Kv.Ycsb.C ~leases ~workers:2 ~rate () in
        Printf.printf "%-7s %12.0f %12.0f %10.3f %10d %8.1f %8.1f\n"
          (if leases then "leases" else "ordered")
          rate r.ops_per_sec r.read_p99 r.drops r.learner_cpu_pct
          r.worker_util_pct;
        let acc = r :: acc in
        if r.read_p99 <= p99_budget_ms then go rate acc rest
        else (sustained, List.rev acc)
  in
  go 0.0 [] ladder_rates

let verify_slice () =
  let engine = Sim.Engine.create () in
  let net = Simnet.create engine (Sim.Rng.create 19) in
  let config =
    { Kv.default_config with
      leases = true;
      lease_dur = 0.05;
      lease_backoff = 0.02;
      read_timeout = 0.05;
      initial_keys = 0;
      key_range = 64;
      record_history = true }
  in
  let sys = Kv.create net config ~n_clients:4 in
  let wl =
    Smr.Workload.Open_loop.create
      ~ops:
        [ (Smr.Workload.Open_loop.Read, 50); (Smr.Workload.Open_loop.Update, 50) ]
      ~dist:(Smr.Workload.Open_loop.Zipf 0.99)
      (Sim.Rng.create 20) ~key_range:64
      ~rate:(Smr.Workload.Open_loop.Constant 300.0)
  in
  Kv.start_open sys wl ~until;
  Sim.Engine.run engine ~until:(until +. drain);
  let lin = Kv.check_history sys in
  let agree =
    let f0 = Kv.state_fingerprint_at sys 0 in
    List.for_all
      (fun r -> Kv.state_fingerprint_at sys r = f0)
      [ 1; 2 ]
  in
  Printf.printf
    "verify: linearizable=%b replicas_agree=%b (%d ops, %d local reads)\n" lin
    agree
    (List.length (Kv.history sys))
    (Kv.counter sys "kv_local_reads");
  (lin, agree)

let json_of_run (r : run) =
  Printf.sprintf
    "{\"preset\":%S,\"leases\":%b,\"workers\":%d,\"offered_rate\":%.0f,\
     \"issued\":%d,\"drops\":%d,\"completed\":%d,\"ops_per_sec\":%.1f,\
     \"local_reads\":%d,\"local_nacks\":%d,\
     \"read_p50_ms\":%.4f,\"read_p99_ms\":%.4f,\"read_p999_ms\":%.4f,\
     \"learner_cpu_pct\":%.2f,\"worker_util_pct\":%.2f,\
     \"classes\":[%s]}"
    (Kv.Ycsb.name r.preset) r.leases r.workers r.rate r.issued r.drops
    r.completed r.ops_per_sec r.local_reads r.local_nacks r.read_p50
    r.read_p99 r.read_p999 r.learner_cpu_pct r.worker_util_pct
    (String.concat "," (List.map Kv.Slo.json_row r.rows))

let run () =
  let presets = preset_sweep () in
  let cells = grid () in
  Util.header
    (Printf.sprintf "Sustained YCSB-C throughput at read p99 <= %.1f ms"
       p99_budget_ms);
  Printf.printf "%-7s %12s %12s %10s %10s %8s %8s\n" "tier" "offered" "ops/s"
    "p99(ms)" "drops" "lrn-cpu%" "workers%";
  let sustained_on, ladder_on = ladder true in
  let sustained_off, ladder_off = ladder false in
  Printf.printf
    "sustained at budget: leases on %.0f ops/s, leases off %.0f ops/s\n"
    sustained_on sustained_off;
  let lin, agree = verify_slice () in
  let find ~preset ~leases ~workers =
    List.find
      (fun r -> r.preset = preset && r.leases = leases && r.workers = workers)
      cells
  in
  let c_on = find ~preset:Kv.Ycsb.C ~leases:true ~workers:2 in
  let c_off = find ~preset:Kv.Ycsb.C ~leases:false ~workers:2 in
  let a_on = find ~preset:Kv.Ycsb.A ~leases:true ~workers:2 in
  (* The lease-served class alone, free of the startup transient (the few
     reads issued before the first grants land go ordered and would
     otherwise dominate the leases-on p99). *)
  let local_p99 =
    match List.find_opt (fun (r : Kv.Slo.row) -> r.cls = "read-local") c_on.rows with
    | Some r -> r.p99_ms
    | None -> nan
  in
  Printf.printf
    "YCSB-C read p99: %.3f ms with leases vs %.3f ms ordered (%.0f%% local)\n"
    c_on.read_p99 c_off.read_p99
    (100.0
    *. float_of_int c_on.local_reads
    /. float_of_int (max 1 c_on.completed));
  let oc = open_out out_file in
  Printf.fprintf oc
    "{\n\
     \"bench\":\"kv\",\n\
     \"offered_rate_grid\":%.0f,\n\
     \"p99_budget_ms\":%.1f,\n\
     \"presets\":[\n%s\n],\n\
     \"grid\":[\n%s\n],\n\
     \"ladder\":[\n%s\n],\n\
     \"summary\":{\"ycsb_c_leases_on_read_p99_ms\":%.4f,\
     \"ycsb_c_leases_off_read_p99_ms\":%.4f,\
     \"ycsb_c_local_read_p99_ms\":%.4f,\
     \"ycsb_c_local_read_fraction\":%.4f,\
     \"ycsb_a_ops_per_sec\":%.1f,\
     \"sustained_ops_leases_on\":%.0f,\
     \"sustained_ops_leases_off\":%.0f,\
     \"linearizable\":%b,\"replicas_agree\":%b}\n\
     }\n"
    grid_rate p99_budget_ms
    (String.concat ",\n" (List.map json_of_run presets))
    (String.concat ",\n" (List.map json_of_run cells))
    (String.concat ",\n" (List.map json_of_run (ladder_on @ ladder_off)))
    c_on.read_p99 c_off.read_p99 local_p99
    (float_of_int c_on.local_reads /. float_of_int (max 1 c_on.completed))
    a_on.ops_per_sec sustained_on sustained_off lin agree;
  close_out oc;
  Printf.printf "wrote %s\n%!" out_file
