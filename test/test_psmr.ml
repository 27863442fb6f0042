(* Tests for parallel state-machine replication (Chapter 6). *)

let make ?(config = Psmr.default_config) ?(n_clients = 8) ?(dep_pct = 0) ?(n_objects = 1024)
    ?(seed = 101) () =
  let engine = Sim.Engine.create () in
  let net = Simnet.create engine (Sim.Rng.create seed) in
  let rng = Sim.Rng.create (seed + 1) in
  let gen _ =
    let dependent = Sim.Rng.int rng 100 < dep_pct in
    { Psmr.obj = Sim.Rng.int rng n_objects; dependent; size = 128 }
  in
  let sys = Psmr.create net config ~n_clients ~gen in
  (engine, sys)

let run_kcps ?(until = 1.0) engine sys =
  Psmr.start sys;
  Sim.Engine.run engine ~until;
  Smr.Metrics.kcps (Psmr.metrics sys) ~from:(until /. 2.0) ~till:until

let test_psmr_completes () =
  let engine, sys = make () in
  let kcps = run_kcps engine sys in
  Alcotest.(check bool) "completes commands" true (kcps > 0.1);
  Alcotest.(check bool) "executed at replica 0" true (Psmr.executed sys > 50)

let test_all_approaches_complete () =
  List.iter
    (fun approach ->
      let config = { Psmr.default_config with approach } in
      let engine, sys = make ~config () in
      let kcps = run_kcps ~until:0.5 engine sys in
      Alcotest.(check bool) "completes" true (kcps > 0.05))
    [ Psmr.Sequential; Psmr.Pipelined; Psmr.Sdpe; Psmr.Psmr ]

let test_psmr_scales_with_workers_independent () =
  (* Fig. 6.3/6.6: with independent commands, P-SMR throughput grows with
     workers while sequential stays flat. *)
  let tput approach n_workers =
    let config =
      { Psmr.default_config with approach; n_workers; exec_cost = 4.0e-5 }
    in
    let engine, sys = make ~config ~n_clients:200 () in
    run_kcps ~until:0.6 engine sys
  in
  let p1 = tput Psmr.Psmr 1 and p4 = tput Psmr.Psmr 4 in
  let s1 = tput Psmr.Sequential 1 and s4 = tput Psmr.Sequential 4 in
  Alcotest.(check bool)
    (Printf.sprintf "P-SMR scales (%.1f -> %.1f kcps)" p1 p4)
    true (p4 > p1 *. 2.0);
  Alcotest.(check bool)
    (Printf.sprintf "sequential does not (%.1f -> %.1f kcps)" s1 s4)
    true (s4 < s1 *. 1.5)

let test_dependent_commands_barrier () =
  let config = { Psmr.default_config with n_workers = 4 } in
  let engine, sys = make ~config ~dep_pct:100 ~n_clients:8 () in
  ignore (run_kcps ~until:0.5 engine sys);
  Alcotest.(check bool) "barriers executed" true (Psmr.barriers sys > 20);
  Alcotest.(check int) "every execution was a barrier" (Psmr.barriers sys) (Psmr.executed sys)

let test_dependent_no_scaling () =
  (* Fig. 6.4: with dependent commands P-SMR gains nothing from workers. *)
  let tput n_workers =
    let config = { Psmr.default_config with n_workers; exec_cost = 4.0e-5 } in
    let engine, sys = make ~config ~dep_pct:100 ~n_clients:32 () in
    run_kcps ~until:0.6 engine sys
  in
  let p1 = tput 1 and p4 = tput 4 in
  Alcotest.(check bool)
    (Printf.sprintf "no scaling on dependent (%.1f vs %.1f kcps)" p1 p4)
    true (p4 < p1 *. 1.5)

let test_mixed_workload_between () =
  (* Fig. 6.5: throughput degrades as the dependent share grows. *)
  let tput dep_pct =
    let config = { Psmr.default_config with n_workers = 4; exec_cost = 4.0e-5 } in
    let engine, sys = make ~config ~dep_pct ~n_clients:48 () in
    run_kcps ~until:0.6 engine sys
  in
  let t0 = tput 0 and t50 = tput 50 and t100 = tput 100 in
  Alcotest.(check bool)
    (Printf.sprintf "monotone degradation (%.1f, %.1f, %.1f)" t0 t50 t100)
    true
    (t0 > t50 && t50 > t100)

let test_sdpe_scheduler_bottleneck () =
  (* SDPE is capped by its scheduler even with many workers. *)
  let tput approach =
    let config =
      { Psmr.default_config with
        approach;
        n_workers = 8;
        exec_cost = 4.0e-5;
        sched_cost = 2.0e-5 }
    in
    let engine, sys = make ~config ~n_clients:200 () in
    run_kcps ~until:0.6 engine sys
  in
  let sdpe = tput Psmr.Sdpe and psmr = tput Psmr.Psmr in
  Alcotest.(check bool)
    (Printf.sprintf "P-SMR (%.1f) beats SDPE (%.1f) with 8 workers" psmr sdpe)
    true (psmr > sdpe *. 1.3)

let test_table_6_1 () =
  Alcotest.(check int) "five approaches" 5 (List.length Psmr.table_6_1);
  let s = Psmr.render_table_6_1 () in
  Alcotest.(check bool) "mentions P-SMR" true (Astring_contains.contains s "P-SMR")

let suite =
  [ Alcotest.test_case "psmr completes" `Quick test_psmr_completes;
    Alcotest.test_case "all approaches complete" `Quick test_all_approaches_complete;
    Alcotest.test_case "psmr scales with workers" `Quick
      test_psmr_scales_with_workers_independent;
    Alcotest.test_case "dependent commands barrier" `Quick test_dependent_commands_barrier;
    Alcotest.test_case "dependent: no scaling" `Quick test_dependent_no_scaling;
    Alcotest.test_case "mixed workloads degrade monotonically" `Quick
      test_mixed_workload_between;
    Alcotest.test_case "sdpe scheduler bottleneck" `Quick test_sdpe_scheduler_bottleneck;
    Alcotest.test_case "table 6.1" `Quick test_table_6_1 ]

let test_pipelined_beats_sequential_at_high_exec_cost () =
  (* Sequential SMR executes on the delivery thread, so heavy commands also
     stall its network processing; pipelined SMR moves execution to a
     dedicated thread (Fig. 6.1 b vs c). *)
  let tput approach =
    let config =
      { Psmr.default_config with approach; n_workers = 1; exec_cost = 3.0e-5 }
    in
    let engine, sys = make ~config ~n_clients:100 () in
    run_kcps ~until:0.8 engine sys
  in
  let seq = tput Psmr.Sequential and pipe = tput Psmr.Pipelined in
  Alcotest.(check bool)
    (Printf.sprintf "pipelined (%.1f) >= sequential (%.1f)" pipe seq)
    true (pipe >= seq *. 0.98)

let suite =
  suite
  @ [ Alcotest.test_case "pipelined >= sequential" `Quick
        test_pipelined_beats_sequential_at_high_exec_cost ]

(* --- uid widening (>255 clients) -------------------------------------------- *)

let test_uid_roundtrip_wide_origins () =
  (* The old uid layout kept 8 bits for the origin: proposer 256 wrapped to
     0 and responses went to the wrong client. *)
  List.iter
    (fun origin ->
      List.iter
        (fun seq ->
          let uid = Paxos.Value.make_uid ~seq ~origin in
          Alcotest.(check int) "origin survives" origin (Paxos.Value.uid_origin uid);
          Alcotest.(check int) "seq survives" seq (Paxos.Value.uid_seq uid))
        [ 0; 1; 255; 256; 100_000 ])
    [ 0; 1; 255; 256; 300; 1_000; 999_999 ]

let test_response_routing_past_255_clients () =
  let config = { Psmr.default_config with approach = Psmr.Sequential } in
  let _engine, sys = make ~config ~n_clients:300 () in
  (* Ring proposer c+1 is application client c; client 279 is past the old
     8-bit wrap point. *)
  let uid = Paxos.Value.make_uid ~seq:7 ~origin:280 in
  Alcotest.(check int) "client decode survives >255" 279
    (Psmr.Testing.responder_client sys ~uid);
  Alcotest.(check int) "responder replica from seq" (7 mod 2)
    (Psmr.Testing.responder_replica sys ~uid);
  (* And the wrapped decode would have picked client (280 land 0xff) - 1. *)
  Alcotest.(check bool) "differs from the wrapped decode" true
    (Psmr.Testing.responder_client sys ~uid <> (280 land 0xff) - 1)

let test_closed_loop_past_255_clients () =
  (* Liveness with a client population the old encoding could not address:
     all 300 closed-loop clients keep cycling. *)
  let config = { Psmr.default_config with approach = Psmr.Sequential } in
  let engine, sys = make ~config ~n_clients:300 () in
  ignore (run_kcps ~until:0.6 engine sys);
  Alcotest.(check bool) "hundreds of clients complete commands" true
    (Smr.Metrics.completed (Psmr.metrics sys) > 600)

(* --- per-replica metrics aggregation ----------------------------------------- *)

let test_metrics_aggregate_across_replicas () =
  let config = { Psmr.default_config with n_workers = 4 } in
  let engine, sys = make ~config ~dep_pct:50 ~n_clients:32 () in
  ignore (run_kcps ~until:0.5 engine sys);
  let per_replica_exec =
    List.init config.n_replicas (fun r -> Psmr.executed_at sys r)
  in
  let per_replica_barriers =
    List.init config.n_replicas (fun r -> Psmr.barriers_at sys r)
  in
  Alcotest.(check int) "executed is the sum over replicas"
    (List.fold_left ( + ) 0 per_replica_exec)
    (Psmr.executed sys);
  Alcotest.(check int) "barriers is the sum over replicas"
    (List.fold_left ( + ) 0 per_replica_barriers)
    (Psmr.barriers sys);
  (* Replicas execute the same stream: each must have done real work (the
     old accessors read replica 0 only, hiding the rest). *)
  List.iter
    (fun e -> Alcotest.(check bool) "every replica executed" true (e > 50))
    per_replica_exec;
  let u0 = Psmr.worker_utilization_at sys 0 ~from:0.1 ~till:0.5 in
  let u1 = Psmr.worker_utilization_at sys 1 ~from:0.1 ~till:0.5 in
  let agg = Psmr.worker_utilization sys ~from:0.1 ~till:0.5 in
  Alcotest.(check (float 1e-6)) "aggregate utilization is the mean"
    ((u0 +. u1) /. 2.0) agg

(* --- barrier completion tolerates interleaved independent heads --------------- *)

let test_barrier_drains_interleaved_heads () =
  (* Worker 1 has an independent command queued ahead of the barrier entry
     when the barrier completes.  The old completion scan asserted every
     joined worker's queue head was the barrier entry and crashed
     (Assert_failure) on this state; the fix drains the independent head
     first.  Built via Testing hooks because the current delivery
     discipline only produces the interleave under batched sinks. *)
  let config =
    { Psmr.default_config with approach = Psmr.Psmr; n_workers = 2; n_replicas = 1 }
  in
  let _engine, sys = make ~config ~n_clients:2 () in
  let barrier_uid = Paxos.Value.make_uid ~seq:1 ~origin:0 in
  let indep_uid = Paxos.Value.make_uid ~seq:2 ~origin:0 in
  let all = config.n_workers in
  (* Worker 0: barrier entry at head; pump makes it join. *)
  Psmr.Testing.enqueue sys ~replica:0 ~worker:0 ~group:all ~uid:barrier_uid;
  Psmr.Testing.pump sys ~replica:0 ~worker:0;
  Alcotest.(check int) "nothing executed yet" 0 (Psmr.executed sys);
  (* Worker 1: an independent entry is interleaved ahead of the barrier. *)
  Psmr.Testing.enqueue sys ~replica:0 ~worker:1 ~group:0 ~uid:indep_uid;
  Psmr.Testing.enqueue sys ~replica:0 ~worker:1 ~group:all ~uid:barrier_uid;
  (* Worker 1 joins with a foreign head: completes the barrier. *)
  Psmr.Testing.join sys ~replica:0 ~worker:1 ~uid:barrier_uid;
  Alcotest.(check int) "barrier executed" 1 (Psmr.barriers sys);
  Alcotest.(check int) "independent head drained and executed" 2
    (Psmr.executed sys);
  Alcotest.(check int) "worker 0 queue empty" 0
    (Psmr.Testing.queue_length sys ~replica:0 ~worker:0);
  Alcotest.(check int) "worker 1 queue empty" 0
    (Psmr.Testing.queue_length sys ~replica:0 ~worker:1)

(* --- dependency-aware executor ------------------------------------------------ *)

module Ex = Psmr.Executor

let exec_stream ?(n_workers = 4) ?(window = 32) ~mode keys =
  (* Self-clocked feed of single-key read-modify-writes; returns the
     executor, its service and the per-command reports. *)
  let svc = Smr.Btree_service.create ~initial_keys:100 ~key_range:100_000 ~seed:1 () in
  let ex = Ex.create ~mode ~n_workers svc.Smr.Btree_service.service in
  let n = Array.length keys in
  let commits = Array.make n 0.0 in
  let reports =
    Array.mapi
      (fun i key ->
        let now = if i < window then 0.0 else commits.(i - window) in
        let ks = Btree.Keyset.singleton key in
        let r =
          Ex.submit ex ~now ~uid:i ~reads:ks ~writes:ks
            (Smr.Btree_service.Insert { key; value = i })
        in
        commits.(i) <- r.Ex.r_commit;
        r)
      keys
  in
  (ex, svc, reports)

let hot_stream ?(n = 400) ?(hot_pct = 30) ?(n_hot = 4) seed =
  let rng = Sim.Rng.create seed in
  Array.init n (fun i ->
      if Sim.Rng.int rng 100 < hot_pct then 1 + Sim.Rng.int rng n_hot
      else 100 + i)

let sequential_fingerprint keys =
  let _, svc, _ = exec_stream ~n_workers:1 ~mode:Ex.Pessimistic keys in
  Smr.Btree_service.fingerprint svc

let test_executor_conflict_serialization () =
  (* Pessimistic mode: conflicting commands (same key) never overlap in
     simulated time, and the final tree equals the sequential reference. *)
  let keys = hot_stream 7 in
  let _, svc, reports = exec_stream ~mode:Ex.Pessimistic keys in
  let n = Array.length keys in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if keys.(i) = keys.(j) then begin
        let ri = reports.(i) and rj = reports.(j) in
        if not (ri.Ex.r_fin <= rj.Ex.r_start || rj.Ex.r_fin <= ri.Ex.r_start)
        then
          Alcotest.failf "conflicting %d and %d overlap: [%f,%f) vs [%f,%f)" i
            j ri.Ex.r_start ri.Ex.r_fin rj.Ex.r_start rj.Ex.r_fin
      end
    done
  done;
  Alcotest.(check int) "state equals sequential reference"
    (sequential_fingerprint keys)
    (Smr.Btree_service.fingerprint svc)

let test_executor_commits_in_log_order () =
  let keys = hot_stream 8 in
  List.iter
    (fun mode ->
      let _, _, reports = exec_stream ~mode keys in
      Array.iteri
        (fun i r ->
          if i > 0 && r.Ex.r_commit < reports.(i - 1).Ex.r_commit then
            Alcotest.failf "command %d committed before its predecessor" i)
        reports)
    [ Ex.Pessimistic; Ex.Optimistic ]

let test_executor_rollback_safety () =
  (* Optimistic mode on a hot stream must roll back, and rolled-back
     writes must never be observable: the final tree still equals the
     sequential reference. *)
  let keys = hot_stream ~hot_pct:60 9 in
  let ex, svc, reports = exec_stream ~mode:Ex.Optimistic keys in
  Alcotest.(check bool) "rollbacks happened" true (Ex.rollbacks ex > 0);
  Alcotest.(check bool) "conflicts detected" true (Ex.conflicts ex > 0);
  Alcotest.(check int) "reports count rollbacks too" (Ex.rollbacks ex)
    (Array.fold_left (fun a r -> a + r.Ex.r_rollbacks) 0 reports);
  Alcotest.(check int) "state equals sequential reference despite rollbacks"
    (sequential_fingerprint keys)
    (Smr.Btree_service.fingerprint svc)

let test_executor_rollback_determinism () =
  (* Same seed, same stream: identical rollback counts and state. *)
  List.iter
    (fun seed ->
      let keys = hot_stream ~hot_pct:50 seed in
      let ex1, svc1, _ = exec_stream ~mode:Ex.Optimistic keys in
      let ex2, svc2, _ = exec_stream ~mode:Ex.Optimistic keys in
      Alcotest.(check int) "rollback count deterministic" (Ex.rollbacks ex1)
        (Ex.rollbacks ex2);
      Alcotest.(check int) "state deterministic"
        (Smr.Btree_service.fingerprint svc1)
        (Smr.Btree_service.fingerprint svc2))
    [ 3; 4; 5 ]

let prop_executor_modes_agree =
  (* Random key streams: optimistic, pessimistic and sequential execution
     all end in the same tree. *)
  QCheck.Test.make ~name:"executor: optimistic = pessimistic = sequential"
    ~count:40
    QCheck.(list_of_size Gen.(int_range 1 120) (int_range 1 16))
    (fun keys ->
      let keys = Array.of_list keys in
      let seq = sequential_fingerprint keys in
      let _, p, _ = exec_stream ~mode:Ex.Pessimistic keys in
      let _, o, _ = exec_stream ~mode:Ex.Optimistic keys in
      Smr.Btree_service.fingerprint p = seq
      && Smr.Btree_service.fingerprint o = seq)

(* --- read-only commands ------------------------------------------------------ *)

(* Long updates, short point reads, no per-command overhead: a read's
   finish time is [start + read_cost] exactly. *)
let read_cost = 1e-5
let write_cost = 1e-3

let read_exec ?(n_workers = 2) ?(query_base = read_cost) mode =
  let costs =
    { Smr.Btree_service.default_costs with
      update_cost = write_cost;
      query_base;
      query_per_key = 0.0;
      cmd_overhead = 0.0 }
  in
  let svc =
    Smr.Btree_service.create ~costs ~initial_keys:100 ~key_range:1_000 ~seed:1 ()
  in
  (Ex.create ~mode ~n_workers svc.Smr.Btree_service.service, svc)

let write ex ~now ~uid key =
  let ks = Btree.Keyset.singleton key in
  Ex.submit ex ~now ~uid ~reads:ks ~writes:ks
    (Smr.Btree_service.Insert { key; value = uid })

let read ex ~now key =
  Ex.read ex ~now ~reads:(Btree.Keyset.singleton key)
    (Smr.Btree_service.Query { lo = key; hi = key })

let both_modes f = List.iter f [ Ex.Pessimistic; Ex.Optimistic ]

let feq = Alcotest.float 1e-12

let test_read_skips_commit_order () =
  both_modes (fun mode ->
      let ex, _ = read_exec mode in
      let w = write ex ~now:0.0 ~uid:1 1 in
      let fin = read ex ~now:1e-4 2 in
      Alcotest.check feq "read runs at once on the free worker"
        (1e-4 +. read_cost) fin;
      Alcotest.(check bool) "finishes before the earlier write commits" true
        (fin < w.Ex.r_commit);
      Alcotest.check feq "last commit untouched" w.Ex.r_commit
        (Ex.last_commit ex))

let test_read_waits_for_inflight_write () =
  both_modes (fun mode ->
      let ex, _ = read_exec mode in
      let w = write ex ~now:0.0 ~uid:1 1 in
      Alcotest.check feq "read waits for the writer of its key"
        (w.Ex.r_fin +. read_cost)
        (read ex ~now:1e-4 1))

let test_pessimistic_write_waits_for_read () =
  (* A 1 ms range read of keys 1..1: the later write to key 1 starts when
     it finishes, a write to another key on the other worker at once. *)
  let ex, _ = read_exec ~query_base:write_cost Ex.Pessimistic in
  let fin = read ex ~now:0.0 1 in
  let w = write ex ~now:1e-4 ~uid:1 1 in
  Alcotest.check feq "conflicting write starts at the read's finish" fin
    w.Ex.r_start;
  let ex, _ = read_exec ~query_base:write_cost Ex.Pessimistic in
  ignore (read ex ~now:0.0 1);
  let w = write ex ~now:1e-4 ~uid:1 2 in
  Alcotest.check feq "independent write does not wait" 1e-4 w.Ex.r_start

let test_reads_leave_counters () =
  both_modes (fun mode ->
      let ex, svc = read_exec mode in
      let keys = hot_stream ~hot_pct:60 11 in
      Array.iteri
        (fun i key -> ignore (write ex ~now:(float_of_int i *. 1e-4) ~uid:i key))
        keys;
      let snap () =
        ( Ex.executed ex,
          Ex.rollbacks ex,
          Ex.conflicts ex,
          Ex.last_commit ex,
          Smr.Btree_service.fingerprint svc )
      in
      let before = snap () in
      let now = float_of_int (Array.length keys) *. 1e-4 in
      Array.iter (fun key -> ignore (read ex ~now key)) keys;
      Alcotest.(check bool) "executed/rollbacks/conflicts/last_commit/state"
        true
        (before = snap ()))

let test_optimistic_reads_never_roll_back () =
  (* Two long reads of key 1 run on two of four workers; a
     read-modify-write of key 1 then executes speculatively on a third
     while they run.  Reads write nothing, so nothing it read can be
     stale.  The same schedule with writes in place of the reads does roll
     back. *)
  let run ~with_reads =
    let ex, _ = read_exec ~n_workers:4 ~query_base:write_cost Ex.Optimistic in
    for i = 0 to 1 do
      if with_reads then ignore (read ex ~now:0.0 1)
      else ignore (write ex ~now:0.0 ~uid:(100 + i) 1)
    done;
    let w = write ex ~now:1e-4 ~uid:1 1 in
    (Ex.rollbacks ex, w.Ex.r_rollbacks)
  in
  Alcotest.(check (pair int int)) "no rollback behind reads" (0, 0)
    (run ~with_reads:true);
  Alcotest.(check bool) "rollback behind writes" true
    (fst (run ~with_reads:false) > 0)

let suite =
  suite
  @ [ Alcotest.test_case "uid roundtrip, wide origins" `Quick
        test_uid_roundtrip_wide_origins;
      Alcotest.test_case "response routing past 255 clients" `Quick
        test_response_routing_past_255_clients;
      Alcotest.test_case "closed loop with 300 clients" `Quick
        test_closed_loop_past_255_clients;
      Alcotest.test_case "metrics aggregate across replicas" `Quick
        test_metrics_aggregate_across_replicas;
      Alcotest.test_case "barrier drains interleaved heads" `Quick
        test_barrier_drains_interleaved_heads;
      Alcotest.test_case "executor: conflict serialization" `Quick
        test_executor_conflict_serialization;
      Alcotest.test_case "executor: commits in log order" `Quick
        test_executor_commits_in_log_order;
      Alcotest.test_case "executor: rollback safety" `Quick
        test_executor_rollback_safety;
      Alcotest.test_case "executor: rollback determinism" `Quick
        test_executor_rollback_determinism;
      QCheck_alcotest.to_alcotest prop_executor_modes_agree;
      Alcotest.test_case "executor: read skips commit order" `Quick
        test_read_skips_commit_order;
      Alcotest.test_case "executor: read waits for in-flight write" `Quick
        test_read_waits_for_inflight_write;
      Alcotest.test_case "executor: pessimistic write waits for read" `Quick
        test_pessimistic_write_waits_for_read;
      Alcotest.test_case "executor: reads leave counters" `Quick
        test_reads_leave_counters;
      Alcotest.test_case "executor: optimistic reads never roll back" `Quick
        test_optimistic_reads_never_roll_back ]
