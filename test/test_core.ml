(* Tests for the Hpsmr facade (lib/core): the replicated KV service it
   re-exports, driven through [Hpsmr.Env]. *)

module Kv = Hpsmr.Kv
module OL = Hpsmr.Smr.Workload.Open_loop

(* A small deployment over an empty tree, leases off, recording the
   history so every read can be matched against the writes it saw. *)
let kv_env ~seed ~replicas ~keys =
  let env = Hpsmr.Env.create ~seed () in
  let config =
    { Kv.default_config with
      n_replicas = replicas;
      leases = false;
      initial_keys = 0;
      key_range = keys;
      record_history = true }
  in
  (env, Kv.create env.net config ~n_clients:2)

let drive kv ~ops ~keys ~until =
  let wl =
    OL.create ~ops ~dist:OL.Uniform (Hpsmr.Sim.Rng.create 1) ~key_range:keys
      ~rate:(OL.Constant 500.0)
  in
  Kv.start_open kv wl ~until;
  wl

let reads kv =
  List.filter_map
    (fun (op : Hpsmr.Smr.Linearizability.Kv.op) ->
      match op.kind with `Read v -> Some (op, v) | `Write _ -> None)
    (Kv.history kv)

let written kv ~key v =
  List.exists
    (fun (op : Hpsmr.Smr.Linearizability.Kv.op) ->
      op.key = key && op.kind = `Write (Some v))
    (Kv.history kv)

let test_kv_put_get () =
  let env, kv = kv_env ~seed:2 ~replicas:3 ~keys:8 in
  let wl = drive kv ~ops:[ (OL.Update, 50); (OL.Read, 50) ] ~keys:8 ~until:0.5 in
  Hpsmr.Env.run env ~for_:1.0;
  let read_back =
    List.filter
      (fun ((op : Hpsmr.Smr.Linearizability.Kv.op), v) ->
        match v with Some v -> written kv ~key:op.key v | None -> false)
      (reads kv)
  in
  Alcotest.(check bool) "reads return written values" true (read_back <> []);
  Alcotest.(check int) "every op answered" (OL.generated wl) (Kv.completed kv);
  Alcotest.(check bool) "linearizable" true (Kv.check_history kv)

let test_kv_get_missing () =
  let env, kv = kv_env ~seed:3 ~replicas:1 ~keys:1_000 in
  ignore (drive kv ~ops:[ (OL.Read, 100) ] ~keys:1_000 ~until:0.2);
  Hpsmr.Env.run env ~for_:0.5;
  let rs = reads kv in
  Alcotest.(check bool) "reads answered" true (rs <> []);
  Alcotest.(check bool) "missing keys read as none" true
    (List.for_all (fun (_, v) -> v = None) rs)

let test_kv_survives_coordinator_crash () =
  let env, kv = kv_env ~seed:4 ~replicas:2 ~keys:16 in
  let wl = drive kv ~ops:[ (OL.Update, 50); (OL.Read, 50) ] ~keys:16 ~until:3.0 in
  Hpsmr.Env.run env ~for_:0.3;
  Kv.kill_coordinator kv;
  Hpsmr.Env.run env ~for_:3.5;
  let late_reads =
    List.filter
      (fun ((op : Hpsmr.Smr.Linearizability.Kv.op), v) ->
        op.inv > 2.0 && v <> None)
      (reads kv)
  in
  Alcotest.(check bool) "post-failover reads see writes" true (late_reads <> []);
  Alcotest.(check int) "every op answered" (OL.generated wl) (Kv.completed kv);
  Alcotest.(check bool) "linearizable" true (Kv.check_history kv);
  (* Ops submitted while no coordinator ran reach the new one by
     resubmission, and the ring counts them. *)
  let resubmitted =
    Option.value ~default:0 (List.assoc_opt "resubmit_items" (Kv.ring_counters kv))
  in
  Alcotest.(check bool)
    (Printf.sprintf "resubmissions counted (%d)" resubmitted)
    true (resubmitted > 0)

let test_env_determinism () =
  let run () =
    let env, kv = kv_env ~seed:5 ~replicas:2 ~keys:16 in
    ignore (drive kv ~ops:[ (OL.Update, 50); (OL.Read, 50) ] ~keys:16 ~until:0.5);
    Hpsmr.Env.run env ~for_:1.0;
    (Kv.history kv, Kv.counters kv)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, identical history" true
    (a = b && fst a <> [])

let suite =
  [ Alcotest.test_case "kv put/get" `Quick test_kv_put_get;
    Alcotest.test_case "kv missing key" `Quick test_kv_get_missing;
    Alcotest.test_case "kv survives coordinator crash" `Quick
      test_kv_survives_coordinator_crash;
    Alcotest.test_case "deterministic runs" `Quick test_env_determinism ]
