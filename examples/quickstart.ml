(* Quickstart: a replicated key-value service driven by a YCSB workload.
   Every replica orders commands through M-Ring Paxos, executes them
   on a parallel executor over its own B+-tree, and serves single-key
   reads locally while it holds a lease.

     dune exec examples/quickstart.exe

   The service survives the crash of its ring coordinator: the demo kills
   it mid-run, keeps serving, and ends with the per-class latency table. *)

module OL = Hpsmr.Smr.Workload.Open_loop

let () =
  let env = Hpsmr.Env.create ~seed:42 () in
  let kv = Hpsmr.Kv.create env.net Hpsmr.Kv.default_config ~n_clients:4 in
  (* YCSB-B: 95% reads, 5% updates over zipfian keys, 5000 ops/s. *)
  let wl =
    Hpsmr.Kv.Ycsb.workload Hpsmr.Kv.Ycsb.B (Hpsmr.Sim.Rng.create 1)
      ~rate:(OL.Constant 5_000.0)
  in
  Hpsmr.Kv.start_open kv wl ~until:2.0;
  Hpsmr.Env.run env ~for_:0.5;
  Printf.printf "after 0.5 s: %d ops completed, %d served by a local lease\n"
    (Hpsmr.Kv.completed kv)
    (Hpsmr.Kv.counter kv "kv_local_reads");

  (* Crash the Ring Paxos coordinator; a spare acceptor takes over. *)
  print_endline "killing the coordinator...";
  Hpsmr.Kv.kill_coordinator kv;
  Hpsmr.Env.run env ~for_:3.0;
  Printf.printf "after the fault window: %d/%d ops completed\n" (Hpsmr.Kv.completed kv)
    (OL.generated wl);
  print_string (Hpsmr.Kv.Slo.render (Hpsmr.Kv.slo kv));
  print_endline "quickstart done"
