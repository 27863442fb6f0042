(* The benchmark's workloads: one YCSB mix each over the full Kv stack
   (3 replicas, 2 executor workers, 4 clients, zipf 0.99 keys), with three
   fixed offered rates set from the knee the search finds on them:
   [low] about a quarter of it, [high] about three quarters, [overload]
   about twice. *)

type t = {
  name : string;
  preset : Kv.Ycsb.preset;
  leases : bool;
  low : float;  (** offered ops/s *)
  high : float;
  overload : float;
  history_s : float;
      (** arrival seconds of the history-recording run at [high]: past the
          lease start-up on the lease workloads (reads nacked in the first
          milliseconds back off for 50 ms, so a shorter history holds no
          local read), short on YCSB-A (see [check_deadline_s]) *)
  why : string;
  layer_map : (string * string) list;
      (** per-layer metric -> the end-to-end metric it should move here *)
}

let n_replicas = 3
let n_workers = 2
let n_clients = 4

(* A rate passes when the worst client op class has p99 <= [limit_ms] and
   every generated op was answered by the end of the drain. *)
let limit_ms = 5.0

(* Virtual seconds of arrivals per run, each followed by a quiet drain so
   deferred write responses and read fallbacks land before meters are
   read: knee probes, the low/high tail runs, and the overload run. *)
let probe_s = 0.5
let tail_s = 3.0
let overload_s = 2.0
let drain_s = 0.5

(* Arrival seconds of one wall-clock-timed simulator-speed run; these runs
   repeat at least [min_speed_runs] times and until the [--seconds] budget
   is spent. *)
let speed_s = 0.1
let min_speed_runs = 30

(* The per-key Wing-Gong search in [Kv.check_history] keeps no memo of
   visited states, and on rare histories it blows up whatever their
   length.  On a 2-vCPU x86-64 container, over 60 seeds of YCSB-A at 90k
   ops/s a 0.05 s history took up to 16 s to check, and over 100 seeds a
   0.025 s one exceeded 30 s twice; over 30 seeds of YCSB-B at 50k ops/s
   a 0.25 s history took up to 5 s.  Each check attempt is therefore cut
   off at [check_deadline_s]; a cut-off attempt is inconclusive and the
   next derived seed's history is checked instead, up to
   [history_attempts]. *)
let check_deadline_s = 10
let history_attempts = 3

(* Knee search: double from [knee_start] ops/s, give up past
   [knee_ceiling], bisect to [knee_resolution] of the bracket's low end. *)
let knee_start = 4_000.0
let knee_ceiling = 1_024_000.0
let knee_resolution = 1.0 /. 32.0

let shared_map =
  [ ("sim.minor_words_per_op", "sim_ops_per_wall_s");
    ("sim.residual_wall_frac", "sim_ops_per_wall_s");
    ("simnet.msgs_per_op", "sim_ops_per_wall_s, read_p50_ms.low");
    ("ring.items_per_learner_msg", "sim_ops_per_wall_s");
    ("simnet.drops", "failed_frac");
    ("wall.self_s.*, wall.us_per_msg.*", "sim_ops_per_wall_s") ]

let all =
  [ { name = "ycsb-c-lease";
      preset = Kv.Ycsb.C;
      leases = true;
      low = 9_000.0;
      high = 28_000.0;
      overload = 76_000.0;
      history_s = 0.25;
      why =
        "YCSB-C (100% reads), leases on: ~96% of reads are served locally, \
         so the lease tier and the learner CPU do almost all the work while \
         the ring and executor idle.";
      layer_map =
        shared_map
        @ [ ("simnet.bytes_per_op", "knee_ops_s");
            ("simnet.cpu_util.learner", "knee_ops_s");
            ("kv.local_read_p50_ms, kv.local_read_p99_ms", "knee_ops_s");
            ("ring.order_p50_ms", "none (ordered path idle)") ] };
    { name = "ycsb-b-lease";
      preset = Kv.Ycsb.B;
      leases = true;
      low = 16_000.0;
      high = 50_000.0;
      overload = 136_000.0;
      history_s = 0.25;
      why =
        "YCSB-B (95% reads, 5% updates), leases on: writes beside reads \
         trigger invalidations, deferred write acks and nack fallback, so a \
         lease change that costs writes shows here.";
      layer_map =
        shared_map
        @ [ ("ring.order_p50_ms", "read_p50_ms.low, write_p50_ms.low");
            ("merge.replica_lag_p99_ms", "write_p99_ms.*");
            ("kv.local_read_frac", "read_*, knee_ops_s");
            ("kv.local_nack_frac", "read_p99_ms.*");
            ( "kv.lease_invalidations_per_s, kv.deadline_responses, \
               kv.read_timeouts",
              "write_p99_ms.*, failed_frac" ) ] };
    { name = "ycsb-a-ordered";
      preset = Kv.Ycsb.A;
      leases = false;
      low = 30_000.0;
      high = 90_000.0;
      overload = 240_000.0;
      history_s = 0.05;
      why =
        "YCSB-A (50% reads, 50% updates), leases off: every op crosses \
         batcher, ring, merge and executor, with the most simulator events \
         per op; the lease tier is bypassed.";
      layer_map =
        shared_map
        @ [ ("ring.order_p50_ms", "read_p50_ms.low, write_p50_ms.low");
            ( "kv.reply_p50_ms, kv.reply_p99_ms",
              "*_p99_ms.high, knee_ops_s, completed_ops_s.overload" );
            ("simnet.cpu_util.acceptor", "knee_ops_s (once the executor is lifted)");
            ("simnet.bytes_per_op", "sim_ops_per_wall_s") ] } ]

let find name = List.find_opt (fun w -> w.name = name) all
