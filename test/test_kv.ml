(* Tests for the replicated KV service and its lease-based read tier. *)

module OL = Smr.Workload.Open_loop

let mk ?(config = Kv.default_config) ?(n_clients = 4) ?(seed = 7) () =
  let engine = Sim.Engine.create () in
  let net = Simnet.create engine (Sim.Rng.create seed) in
  let sys = Kv.create net config ~n_clients in
  (engine, net, sys)

(* A small verify-sized deployment: tiny key space, empty initial tree,
   history recording on, short leases so expiry paths run. *)
let verify_config =
  { Kv.default_config with
    n_replicas = 3;
    n_workers = 2;
    leases = true;
    lease_dur = 0.05;
    lease_backoff = 0.02;
    read_timeout = 0.05;
    initial_keys = 0;
    key_range = 32;
    record_history = true }

let drive ?(seed = 7) ?(until = 1.0) ?(drain = 0.5) ~config ~rate () =
  let engine, net, sys = mk ~config ~seed () in
  let wl =
    OL.create
      ~ops:[ (OL.Read, 50); (OL.Update, 50) ]
      ~dist:(OL.Zipf 0.99) (Sim.Rng.create (seed + 1))
      ~key_range:config.Kv.key_range ~rate:(OL.Constant rate)
  in
  Kv.start_open sys wl ~until;
  Sim.Engine.run engine ~until:(until +. drain);
  ignore net;
  (sys, wl)

let test_kv_completes () =
  let config = { Kv.default_config with initial_keys = 1_000; key_range = 10_000 } in
  let sys, wl = drive ~config ~rate:2_000.0 ~until:0.5 () in
  Alcotest.(check bool) "arrivals generated" true (OL.generated wl > 500);
  Alcotest.(check bool) "commands executed" true (Kv.executed sys > 100);
  let classes = Kv.Slo.classes (Kv.slo sys) in
  Alcotest.(check bool) "update class measured" true
    (List.mem "update" classes);
  Alcotest.(check bool) "some read class measured" true
    (List.mem "read-local" classes || List.mem "read" classes);
  Alcotest.(check bool) "no stuck write responses" true
    (Kv.pending_writes sys = 0)

let test_kv_local_reads_served () =
  let config =
    { Kv.default_config with initial_keys = 1_000; key_range = 10_000 }
  in
  let engine, _net, sys = mk ~config () in
  (* Read-only workload: leases stay valid, so reads are served locally. *)
  let wl =
    OL.create ~ops:[ (OL.Read, 100) ] ~dist:(OL.Zipf 0.99)
      (Sim.Rng.create 11) ~key_range:10_000 ~rate:(OL.Constant 2_000.0)
  in
  Kv.start_open sys wl ~until:0.5;
  Sim.Engine.run engine ~until:1.0;
  Alcotest.(check bool) "local reads served" true
    (Kv.counter sys "kv_local_reads" > 500);
  Alcotest.(check bool) "grants flowed" true
    (Kv.counter sys "kv_lease_grants" > 0);
  (* Read-only: nothing ever invalidates a lease. *)
  Alcotest.(check int) "no invalidations" 0
    (Kv.counter sys "kv_lease_invalidations")

let test_kv_writes_invalidate_leases () =
  let sys, _ = drive ~config:verify_config ~rate:500.0 ~until:0.5 () in
  Alcotest.(check bool) "invalidations happened" true
    (Kv.counter sys "kv_lease_invalidations" > 0);
  Alcotest.(check bool) "epochs bumped" true
    (Kv.lease_epoch sys ~replica:0 > 0)

let test_kv_replicas_agree () =
  let sys, _ = drive ~config:verify_config ~rate:500.0 () in
  let f0 = Kv.state_fingerprint_at sys 0 in
  for r = 1 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "replica %d fingerprint" r)
      f0
      (Kv.state_fingerprint_at sys r)
  done

let test_kv_linearizable () =
  let sys, _ = drive ~config:verify_config ~rate:300.0 () in
  Alcotest.(check bool) "history non-trivial" true
    (List.length (Kv.history sys) > 100);
  Alcotest.(check bool) "local reads occurred" true
    (Kv.counter sys "kv_local_reads" > 0);
  Alcotest.(check bool) "linearizable" true (Kv.check_history sys)

(* The deliberately-broken-lease regression: replica 2 keeps serving local
   reads after its lease expired or was invalidated, while a fault rule
   hides all other traffic from it (so its tree goes stale but reads and
   their responses still flow).  Conflicting writes commit and respond via
   the lease-expiry deadline; later local reads at the stale replica then
   return overwritten values — which the Kv linearizability checker must
   reject. *)
let test_kv_broken_lease_caught () =
  let config = verify_config in
  let engine, net, sys = mk ~config ~seed:13 () in
  Kv.Testing.break_leases sys;
  let inj = Fault.Injector.create net ~seed:13 in
  let stale_pid = Simnet.pid (Kv.replica_proc sys 2) in
  Fault.Injector.rule inj ~at:0.2 ~dur:10.0 ~drop:1.0
    ~applies:(fun m ~dst ->
      Simnet.pid dst = stale_pid
      && match m.Simnet.payload with Kv.KReadReq _ -> false | _ -> true)
    "isolate replica 2 (reads still reach it)";
  let wl =
    OL.create
      ~ops:[ (OL.Read, 50); (OL.Update, 50) ]
      ~dist:(OL.Zipf 0.99) (Sim.Rng.create 14) ~key_range:32
      ~rate:(OL.Constant 300.0)
  in
  Kv.start_open sys wl ~until:1.2;
  Sim.Engine.run engine ~until:1.7;
  Alcotest.(check bool) "writes responded via lease deadline" true
    (Kv.counter sys "kv_deadline_responses" > 0);
  Alcotest.(check bool) "stale local reads served" true
    (Kv.counter sys "kv_local_reads" > 0);
  Alcotest.(check bool) "checker rejects stale reads" false
    (Kv.check_history sys)

(* Same isolation without the broken flag: the stale replica's lease
   expires, it refuses local reads, clients fall back — linearizable. *)
let test_kv_lease_expiry_protects () =
  let config = verify_config in
  let engine, net, sys = mk ~config ~seed:13 () in
  let inj = Fault.Injector.create net ~seed:13 in
  let stale_pid = Simnet.pid (Kv.replica_proc sys 2) in
  Fault.Injector.rule inj ~at:0.2 ~dur:10.0 ~drop:1.0
    ~applies:(fun m ~dst ->
      Simnet.pid dst = stale_pid
      && match m.Simnet.payload with Kv.KReadReq _ -> false | _ -> true)
    "isolate replica 2 (reads still reach it)";
  let wl =
    OL.create
      ~ops:[ (OL.Read, 50); (OL.Update, 50) ]
      ~dist:(OL.Zipf 0.99) (Sim.Rng.create 14) ~key_range:32
      ~rate:(OL.Constant 300.0)
  in
  Kv.start_open sys wl ~until:1.2;
  Sim.Engine.run engine ~until:1.7;
  Alcotest.(check bool) "stale replica refused reads" true
    (Kv.counter sys "kv_local_nacks" > 0);
  Alcotest.(check bool) "linearizable" true (Kv.check_history sys)

(* A holder cut off from the log while reads still reach it keeps serving
   its old values until its lease expires.  The other replicas must not
   serve, or answer through the ordered path, a newer value of a key the
   cut-off holder may still serve older: revoked keys come back only once
   every holder has proved it applied the write (or its lease expired),
   and ordered reads of such keys wait as long.  Restoring a key on the
   holder's own re-grant alone fails these seeds. *)
let test_kv_isolated_holder_linearizable () =
  List.iter
    (fun seed ->
      let config = { verify_config with lease_dur = 0.1 } in
      let engine, net, sys = mk ~config ~seed () in
      let inj = Fault.Injector.create net ~seed in
      let stale_pid = Simnet.pid (Kv.replica_proc sys 2) in
      Fault.Injector.rule inj ~at:0.2 ~dur:10.0 ~drop:1.0
        ~applies:(fun m ~dst ->
          Simnet.pid dst = stale_pid
          && match m.Simnet.payload with Kv.KReadReq _ -> false | _ -> true)
        "isolate replica 2 (reads still reach it)";
      let wl =
        OL.create
          ~ops:[ (OL.Read, 50); (OL.Update, 50) ]
          ~dist:(OL.Zipf 0.99) (Sim.Rng.create (seed + 1)) ~key_range:32
          ~rate:(OL.Constant 300.0)
      in
      Kv.start_open sys wl ~until:1.2;
      Sim.Engine.run engine ~until:2.0;
      let name what = Printf.sprintf "seed %d: %s" seed what in
      Alcotest.(check bool) (name "ordered reads held") true
        (Kv.counter sys "kv_deferred_reads" > 0);
      Alcotest.(check bool) (name "linearizable") true (Kv.check_history sys))
    [ 2; 3; 5 ]

let test_ycsb_presets_wellformed () =
  List.iter
    (fun p ->
      let ops = Kv.Ycsb.ops p in
      let total = List.fold_left (fun a (_, w) -> a + w) 0 ops in
      Alcotest.(check int) (Kv.Ycsb.name p ^ " weights") 100 total;
      Alcotest.(check bool)
        (Kv.Ycsb.name p ^ " roundtrips")
        true
        (Kv.Ycsb.of_name (Kv.Ycsb.name p) = Some p))
    Kv.Ycsb.all

let test_ycsb_d_uses_latest () =
  Alcotest.(check bool) "D is latest-key" true
    (match Kv.Ycsb.dist Kv.Ycsb.D with
    | Smr.Workload.Open_loop.Latest _ -> true
    | _ -> false)

(* Both executor modes behind the ordered path (leases off): commands
   complete, replicas end in the same tree, and only the optimistic mode
   rolls back — a zipfian write-heavy stream at a rate that keeps several
   commands in flight on the hot keys. *)
let test_kv_executor_modes () =
  List.iter
    (fun mode ->
      let config =
        { Kv.default_config with
          n_replicas = 2;
          n_workers = 4;
          executor = mode;
          leases = false }
      in
      let engine, _net, sys = mk ~config () in
      let wl =
        Kv.Ycsb.workload Kv.Ycsb.A (Sim.Rng.create 12) ~rate:(OL.Constant 40_000.0)
      in
      Kv.start_open sys wl ~until:0.3;
      Sim.Engine.run engine ~until:0.4;
      Alcotest.(check int) "every op answered" (OL.generated wl) (Kv.completed sys);
      Alcotest.(check int) "replicas agree on final state"
        (Kv.state_fingerprint_at sys 0)
        (Kv.state_fingerprint_at sys 1);
      Alcotest.(check bool) "rollbacks only when optimistic"
        (mode = Psmr.Executor.Optimistic)
        (Kv.rollbacks sys > 0))
    [ Psmr.Executor.Pessimistic; Psmr.Executor.Optimistic ]

(* Optimistic execution under the lease tier: speculative writes must not
   leak into local reads or diverge replicas. *)
let test_kv_optimistic_with_leases () =
  let config = { verify_config with executor = Psmr.Executor.Optimistic } in
  let sys, _ = drive ~config ~rate:1_000.0 ~until:0.5 () in
  Alcotest.(check bool) "rollbacks happened" true (Kv.rollbacks sys > 0);
  Alcotest.(check bool) "local reads occurred" true
    (Kv.counter sys "kv_local_reads" > 0);
  for r = 1 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "replica %d fingerprint" r)
      (Kv.state_fingerprint_at sys 0)
      (Kv.state_fingerprint_at sys r)
  done;
  Alcotest.(check bool) "linearizable" true (Kv.check_history sys)

(* Open-loop driving: arrivals are paced by the generator's rate curve,
   not by responses. *)
let test_kv_open_loop_drive () =
  let config = { Kv.default_config with leases = false } in
  let engine, _net, sys = mk ~config ~n_clients:16 () in
  let wl =
    OL.create (Sim.Rng.create 5) ~key_range:100_000 ~rate:(OL.Constant 10_000.0)
  in
  Kv.start_open sys wl ~until:0.4;
  Sim.Engine.run engine ~until:0.5;
  let done_ = Kv.completed sys in
  Alcotest.(check bool)
    (Printf.sprintf "open-loop commands complete (%d)" done_)
    true
    (done_ > 2_000 && done_ + Kv.drops sys <= OL.generated wl)

(* Shrink the proposer window so the ring refuses arrivals mid-run: with
   leases off every arrival the driver consumes lands in exactly one of
   issued or drops (no discarded lookahead at the horizon, no
   double-issue), and drops never complete. *)
let test_kv_open_loop_drop_accounting () =
  let config =
    { Kv.default_config with
      leases = false;
      ring = { Ringpaxos.Mring.default_config with proposer_buffer = 4 * 1024 } }
  in
  let engine, _net, sys = mk ~config ~n_clients:2 () in
  let wl =
    OL.create (Sim.Rng.create 9) ~key_range:100_000 ~rate:(OL.Constant 20_000.0)
  in
  Kv.start_open sys wl ~until:0.4;
  Sim.Engine.run engine ~until:0.6;
  Alcotest.(check bool)
    (Printf.sprintf "window overflow dropped arrivals (%d)" (Kv.drops sys))
    true (Kv.drops sys > 0);
  Alcotest.(check int) "generated = issued + drops" (OL.generated wl)
    (Kv.issued sys + Kv.drops sys);
  Alcotest.(check bool) "completions bounded by issued" true
    (Kv.completed sys <= Kv.issued sys)

(* Past the knee the ordered path holds its ordering rate instead of
   collapsing: the intake credit sheds what the ring cannot order, so the
   coordinator's receive CPU keeps serving Phase 2 and nothing is
   resubmitted.  YCSB-A, leases off, at 240k ops/s (about twice the
   122k ops/s knee). *)
let test_kv_ordered_plateau () =
  let config = { Kv.default_config with leases = false } in
  let engine, _net, sys = mk ~config ~seed:1 () in
  let wl = Kv.Ycsb.workload Kv.Ycsb.A (Sim.Rng.create 2) ~rate:(OL.Constant 240_000.0) in
  let until = 0.5 and step = 0.125 in
  Kv.start_open sys wl ~until;
  let prev = ref 0 in
  for w = 1 to 4 do
    Sim.Engine.run engine ~until:(float_of_int w *. step);
    let done_ = Kv.completed sys in
    (* 0.8 of the knee's share of one window *)
    if done_ - !prev < 12_200 then
      Alcotest.failf "window %d completed %d ops" w (done_ - !prev);
    prev := done_
  done;
  Sim.Engine.run engine ~until:(until +. 0.5);
  Alcotest.(check bool)
    (Printf.sprintf "arrivals shed (%d)" (Kv.drops sys))
    true (Kv.drops sys > 0);
  Alcotest.(check int) "generated = issued + drops" (OL.generated wl)
    (Kv.issued sys + Kv.drops sys);
  Alcotest.(check int) "every issued op answered" (Kv.issued sys) (Kv.completed sys);
  for r = 1 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "replica %d fingerprint" r)
      (Kv.state_fingerprint_at sys 0)
      (Kv.state_fingerprint_at sys r)
  done;
  Alcotest.(check (option int)) "no resubmissions" None
    (List.assoc_opt "resubmit_items" (Kv.ring_counters sys))

(* YCSB-C with leases on: lease-served point reads run on the executor
   workers, not the learner CPU, and answer with the same 256 B reply as
   an ordered point read (not the 8 KB range-query page). *)
let ycsb_c_run ~rate ~until ~tap =
  let engine, _net, sys = mk () in
  for c = 0 to 3 do
    let p = Kv.client_proc sys c in
    let prev = Simnet.handler_of p in
    Simnet.set_handler p (fun m ->
        tap m;
        prev m)
  done;
  let wl = Kv.Ycsb.workload Kv.Ycsb.C (Sim.Rng.create 8) ~rate:(OL.Constant rate) in
  Kv.start_open sys wl ~until;
  Sim.Engine.run engine ~until:(until +. 0.5);
  (sys, wl)

let test_kv_local_read_reply_size () =
  let local = ref [] and ordered = ref [] in
  let tap (m : Simnet.msg) =
    match m.Simnet.payload with
    | Kv.KReadResp { ok = true; _ } -> local := m.Simnet.size :: !local
    | Kv.KResp _ -> ordered := m.Simnet.size :: !ordered
    | _ -> ()
  in
  let sys, wl = ycsb_c_run ~rate:5_000.0 ~until:0.3 ~tap in
  Alcotest.(check int) "every op answered" (OL.generated wl) (Kv.completed sys);
  Alcotest.(check bool) "both read paths used" true
    (!local <> [] && !ordered <> []);
  Alcotest.(check (list int)) "ordered point reads answer 256 B" []
    (List.filter (( <> ) 256) !ordered);
  Alcotest.(check (list int)) "local point reads answer like ordered ones" []
    (List.filter (( <> ) 256) !local)

let test_kv_local_reads_spare_learner_cpu () =
  let until = 0.5 in
  let sys, wl = ycsb_c_run ~rate:20_000.0 ~until ~tap:ignore in
  Alcotest.(check int) "every op answered" (OL.generated wl) (Kv.completed sys);
  Alcotest.(check bool) "mostly local" true
    (Kv.counter sys "kv_local_reads" > OL.generated wl * 9 / 10);
  for r = 0 to 2 do
    let cpu =
      Sim.Stats.Busy.utilization
        (Simnet.cpu_busy (Simnet.proc_node (Kv.replica_proc sys r)))
        ~from:0.0 ~till:until
    in
    let workers = Kv.worker_utilization sys ~replica:r ~from:0.0 ~till:until in
    if cpu >= 25.0 then
      Alcotest.failf "learner %d CPU %.1f%% at 20k reads/s" r cpu;
    if workers <= 0.0 then
      Alcotest.failf "replica %d workers idle (%.1f%%)" r workers
  done

(* An idle deployment (leases off, no arrivals) pays only ring
   housekeeping: no consensus round runs while nothing is proposed. *)
let test_kv_idle_ring_quiet () =
  let config = { Kv.default_config with leases = false } in
  let engine, net, sys = mk ~config () in
  let received () =
    let rec go pid acc =
      match Simnet.proc_of net pid with
      | p -> go (pid + 1) (acc + Sim.Stats.Rate.events (Simnet.recv_rate p))
      | exception Invalid_argument _ -> acc
    in
    go 0 0
  in
  let from = 0.5 and till = 1.5 in
  Sim.Engine.run engine ~until:from;
  let before = received () in
  Sim.Engine.run engine ~until:till;
  let msgs = received () - before in
  if msgs >= 1_000 then Alcotest.failf "idle ring received %d messages in 1 s" msgs;
  let cpu =
    Sim.Stats.Busy.utilization
      (Simnet.cpu_busy (Simnet.proc_node (Kv.replica_proc sys 0)))
      ~from ~till
  in
  if cpu >= 0.1 then Alcotest.failf "idle learner CPU %.3f%%" cpu;
  Alcotest.(check int) "nothing executed" 0 (Kv.executed sys)

(* Key-granular revocation: a write to key [k] stops lease reads of [k]
   alone, and only until every holder's re-grant has proved it applied the
   write; reads of other keys stay local throughout.  A nack for the
   revoked key comes from a valid lease, so the client falls back for that
   read only and backs no replica off: every ordered read is a nacked one. *)
let test_kv_write_revokes_only_its_keys () =
  let config = { verify_config with lease_dur = 0.5; lease_backoff = 0.05 } in
  let engine, net, sys = mk ~config () in
  let idle =
    OL.create (Sim.Rng.create 1) ~key_range:config.Kv.key_range
      ~rate:(OL.Constant 1e-9)
  in
  Kv.start_open sys idle ~until:1.0;
  Sim.Engine.run engine ~until:0.05;
  let k = 3 and other = 7 in
  let arrival ~key ~write =
    let ks = Btree.Keyset.singleton key in
    { OL.at = Simnet.now net;
      op =
        (if write then Smr.Btree_service.Insert { key; value = 1_000 + key }
         else Smr.Btree_service.Query { lo = key; hi = key });
      reads = ks;
      writes = (if write then ks else Btree.Keyset.empty);
      size = 64 }
  in
  (* Tag each lease read by its key at the replica, then tally the
     replies at the clients. *)
  let key_of = Hashtbl.create 1024 in
  for r = 0 to 2 do
    let p = Kv.replica_proc sys r in
    let prev = Simnet.handler_of p in
    Simnet.set_handler p (fun m ->
        (match m.Simnet.payload with
        | Kv.KReadReq { rid; lo; _ } -> Hashtbl.replace key_of rid lo
        | _ -> ());
        prev m)
  done;
  let served = Hashtbl.create 2 and nacked = Hashtbl.create 2 in
  let get tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
  let bump tbl key = Hashtbl.replace tbl key (1 + get tbl key) in
  let unheld = ref 0 and last_nack = ref 0.0 and last_served = ref 0.0 in
  for c = 0 to 3 do
    let p = Kv.client_proc sys c in
    let prev = Simnet.handler_of p in
    Simnet.set_handler p (fun m ->
        (match m.Simnet.payload with
        | Kv.KReadResp { rid; ok; held; _ } ->
            let key = Hashtbl.find key_of rid in
            if ok then begin
              bump served key;
              if key = k then last_served := Simnet.now net
            end
            else begin
              bump nacked key;
              if not held then incr unheld;
              last_nack := Simnet.now net
            end
        | _ -> ());
        prev m)
  done;
  let t0 = Simnet.now net in
  Kv.Testing.issue sys (arrival ~key:k ~write:true);
  for i = 0 to 399 do
    ignore
      (Sim.Engine.at engine ~time:(t0 +. (float_of_int i *. 25e-6)) (fun () ->
           Kv.Testing.issue sys (arrival ~key:k ~write:false);
           Kv.Testing.issue sys (arrival ~key:other ~write:false)))
  done;
  Sim.Engine.run engine ~until:(t0 +. 0.05);
  Alcotest.(check int) "every op answered" 801 (Kv.completed sys);
  Alcotest.(check int) "other key always served locally" 400 (get served other);
  Alcotest.(check bool)
    (Printf.sprintf "reads of the written key nacked (%d)" (get nacked k))
    true (get nacked k > 0);
  Alcotest.(check int) "every nack under a valid lease" 0 !unheld;
  Alcotest.(check int) "no replica backed off: only nacked reads ordered"
    (1 + get nacked k) (Kv.issued sys);
  Alcotest.(check bool) "re-grants proposed" true
    (Kv.counter sys "kv_lease_regrants" > 0);
  if not (!last_nack < !last_served && !last_nack -. t0 < 0.005) then
    Alcotest.failf "written key not served again: last nack %.3f ms, last served %.3f ms"
      ((!last_nack -. t0) *. 1e3) ((!last_served -. t0) *. 1e3);
  Alcotest.(check bool) "linearizable" true (Kv.check_history sys)

(* YCSB-B (95 % reads, 5 % updates, zipf keys) at 16k ops/s: writes to
   hot keys revoke those keys alone and the re-grants restore them within
   a consensus round, so nearly every read is served by a lease.  Reads
   answered in the first 0.1 s are left out: the ones that arrive before
   the first grants are nacked without a lease and back every replica off
   for [lease_backoff] (50 ms of ordered reads, about a tenth of this
   run). *)
let test_kv_ycsb_b_serves_reads_locally () =
  let config = { Kv.default_config with record_history = true } in
  let engine, _net, sys = mk ~config ~seed:1 () in
  let wl = Kv.Ycsb.workload Kv.Ycsb.B (Sim.Rng.create 2) ~rate:(OL.Constant 16_000.0) in
  let count cls = (Kv.Slo.row_of (Kv.slo sys) cls).Kv.Slo.count in
  Kv.start_open sys wl ~until:0.5;
  Sim.Engine.run engine ~until:0.1;
  let local0 = count "read-local" and ordered0 = count "read" in
  Sim.Engine.run engine ~until:1.0;
  let local = count "read-local" - local0 and ordered = count "read" - ordered0 in
  let frac = float_of_int local /. float_of_int (local + ordered) in
  if frac < 0.9 then Alcotest.failf "local-read fraction %.3f" frac;
  Alcotest.(check int) "every op answered" (OL.generated wl) (Kv.completed sys);
  for r = 1 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "replica %d fingerprint" r)
      (Kv.state_fingerprint_at sys 0)
      (Kv.state_fingerprint_at sys r)
  done;
  Alcotest.(check bool) "linearizable" true (Kv.check_history sys)

let test_slo_percentiles () =
  let slo = Kv.Slo.create () in
  for i = 1 to 1000 do
    Kv.Slo.add slo ~cls:"read" (float_of_int i *. 1e-3)
  done;
  let r = Kv.Slo.row_of slo "read" in
  Alcotest.(check int) "count" 1000 r.Kv.Slo.count;
  Alcotest.(check bool) "p50 ~ 500ms" true
    (r.Kv.Slo.p50_ms > 450.0 && r.Kv.Slo.p50_ms < 550.0);
  Alcotest.(check bool) "p99 ~ 990ms" true
    (r.Kv.Slo.p99_ms > 950.0 && r.Kv.Slo.p99_ms <= 1000.0);
  Alcotest.(check bool) "p999 >= p99" true (r.Kv.Slo.p999_ms >= r.Kv.Slo.p99_ms);
  (* Reading an unseen class is side-effect free. *)
  let unseen = Kv.Slo.row_of slo "scan" in
  Alcotest.(check int) "unseen class count" 0 unseen.Kv.Slo.count;
  Alcotest.(check (list string)) "unseen class not registered" [ "read" ]
    (Kv.Slo.classes slo);
  Alcotest.(check int) "rows unchanged" 1 (List.length (Kv.Slo.rows slo))

let suite =
  [ Alcotest.test_case "kv ycsb-a end to end" `Quick test_kv_completes;
    Alcotest.test_case "kv leases serve local reads" `Quick
      test_kv_local_reads_served;
    Alcotest.test_case "kv writes invalidate leases" `Quick
      test_kv_writes_invalidate_leases;
    Alcotest.test_case "kv replicas agree" `Quick test_kv_replicas_agree;
    Alcotest.test_case "kv linearizable with leases" `Quick test_kv_linearizable;
    Alcotest.test_case "kv broken lease caught by checker" `Quick
      test_kv_broken_lease_caught;
    Alcotest.test_case "kv lease expiry protects reads" `Quick
      test_kv_lease_expiry_protects;
    Alcotest.test_case "kv isolated lease holder stays linearizable" `Quick
      test_kv_isolated_holder_linearizable;
    Alcotest.test_case "ycsb presets well-formed" `Quick
      test_ycsb_presets_wellformed;
    Alcotest.test_case "ycsb D latest-key" `Quick test_ycsb_d_uses_latest;
    Alcotest.test_case "slo percentiles" `Quick test_slo_percentiles;
    Alcotest.test_case "kv executor modes end to end" `Quick
      test_kv_executor_modes;
    Alcotest.test_case "kv optimistic executor with leases" `Quick
      test_kv_optimistic_with_leases;
    Alcotest.test_case "kv local read reply size" `Quick
      test_kv_local_read_reply_size;
    Alcotest.test_case "kv local reads spare learner cpu" `Quick
      test_kv_local_reads_spare_learner_cpu;
    Alcotest.test_case "kv idle ring is quiet" `Quick test_kv_idle_ring_quiet;
    Alcotest.test_case "kv open-loop drive" `Quick test_kv_open_loop_drive;
    Alcotest.test_case "kv open-loop drop accounting" `Quick
      test_kv_open_loop_drop_accounting;
    Alcotest.test_case "kv ordered path plateaus past the knee" `Quick
      test_kv_ordered_plateau;
    Alcotest.test_case "kv write revokes only its keys" `Quick
      test_kv_write_revokes_only_its_keys;
    Alcotest.test_case "kv ycsb-b serves reads locally" `Quick
      test_kv_ycsb_b_serves_reads_locally ]
