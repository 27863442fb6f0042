(* Dependency-aware parallel executor over the btree service.

   Each decided command declares the key ranges it reads and writes
   (Btree.Keyset).  A dependency tracker keeps the commands whose simulated
   execution or commit is still in flight; a new command is dispatched to
   one of [n_workers] simulated worker threads as soon as its conflicting
   predecessors have finished — there is no all-workers barrier.

   Two modes ("Rethinking State-Machine Replication for Parallelism",
   arXiv 1311.6183, and "Optimistic Parallel State-Machine Replication",
   arXiv 1404.6721):

   - [Pessimistic]: a command waits for every conflicting predecessor to
     finish before it starts, so conflicting commands never overlap and
     independent commands run on any free worker.

   - [Optimistic]: a command starts speculatively on the first free worker.
     At commit (commits happen in log order) the tracker checks whether a
     predecessor whose writes intersect this command's reads was still
     executing when the command started — if so the speculative execution
     read stale state: the command's writes are undone, a rollback cost is
     charged, and the command re-executes once the conflicting predecessors
     have finished.  Re-execution can itself detect a later conflict, so
     the check loops until the command ran against settled state.

   State is applied to the underlying service in log order (submissions are
   ordered), so every replica running the same stream holds an identical
   tree; the speculative timing model charges the extra work rollbacks
   cause without perturbing determinism.  A rolled-back command's writes
   are undone before anything else executes, so they are never observable
   (see CORRECTNESS.md).

   Per-stage spans — queue (dependency wait), dispatch (worker wait),
   execute, rollback, commit (in-order commit wait) — feed the lib/trace
   latency decomposition when a tracer is installed.  Read-only commands
   ([read]) share the workers but emit no spans and never commit. *)

type mode = Pessimistic | Optimistic

type report = {
  r_ready : float;  (** dependencies settled (pessimistic) / submit time *)
  r_start : float;  (** first speculative execution start *)
  r_fin : float;  (** final execution finish (after any re-executions) *)
  r_commit : float;  (** in-order commit time *)
  r_rollbacks : int;  (** re-executions this command needed *)
}

type inflight = {
  i_writes : Btree.Keyset.t;
  i_reads : Btree.Keyset.t;
  i_fin : float;
}

type t = {
  mode : mode;
  service : Smr.Service.t;
  workers : float array;  (* per-worker next-free time *)
  busy : Sim.Stats.Busy.t;
  tracer : Trace.t option;
  pid : int;
  mutable active : inflight list;  (* commands whose execution may still be in flight *)
  mutable clock : float;  (* latest submission time seen *)
  mutable last_commit : float;
  mutable executed : int;
  mutable rollbacks : int;
  mutable conflicts : int;
}

let create ?tracer ?(pid = -1) ~mode ~n_workers service =
  { mode;
    service;
    workers = Array.make (Stdlib.max 1 n_workers) 0.0;
    busy = Sim.Stats.Busy.create ();
    tracer;
    pid;
    active = [];
    clock = 0.0;
    last_commit = 0.0;
    executed = 0;
    rollbacks = 0;
    conflicts = 0 }

let span t ~id ~cat ~name ~ts ~dur =
  match t.tracer with
  | Some tr when dur > 0.0 -> Trace.span tr ~id ~pid:t.pid ~cat ~name ~ts ~dur
  | _ -> ()

let min_free t = Array.fold_left Stdlib.min t.workers.(0) t.workers

let argmin_free t =
  let w = ref 0 in
  Array.iteri (fun i f -> if f < t.workers.(!w) then w := i) t.workers;
  !w

(* An active entry can no longer delay anyone once its execution finished
   before every worker is free again: any later submission starts at or
   after [max clock min_free], so entries below that watermark are dead. *)
let prune t =
  let wm = Stdlib.max t.clock (min_free t) in
  t.active <- List.filter (fun e -> e.i_fin > wm) t.active

let commit_in_order t fin =
  let commit = Stdlib.max fin t.last_commit in
  t.last_commit <- commit;
  commit

(* When every active command conflicting with [reads]/[writes] has
   finished. *)
let deps_done t ~now ~reads ~writes =
  List.fold_left
    (fun acc e ->
      if
        e.i_fin > acc
        && Btree.Keyset.conflict ~r1:reads ~w1:writes ~r2:e.i_reads
             ~w2:e.i_writes
      then e.i_fin
      else acc)
    now t.active

(* Execute [op] on the earliest-free worker, no earlier than [ready]. *)
let run_on_worker t ~ready op =
  let w = argmin_free t in
  let start = Stdlib.max ready t.workers.(w) in
  let o = t.service.execute op in
  let fin = start +. o.Smr.Service.cost in
  t.workers.(w) <- fin;
  Sim.Stats.Busy.add ~at:start t.busy o.cost;
  (start, o, fin)

let submit t ~now ~uid ~reads ~writes op =
  t.clock <- Stdlib.max t.clock now;
  let now = t.clock in
  prune t;
  let report =
    match t.mode with
    | Pessimistic ->
        (* Dispatch once every conflicting predecessor has finished. *)
        let ready = deps_done t ~now ~reads ~writes in
        let start, o, fin = run_on_worker t ~ready op in
        let commit = commit_in_order t fin in
        span t ~id:uid ~cat:"queue" ~name:"dep-wait" ~ts:now ~dur:(ready -. now);
        span t ~id:uid ~cat:"dispatch" ~name:"worker-wait" ~ts:ready ~dur:(start -. ready);
        span t ~id:uid ~cat:"execute" ~name:"execute" ~ts:start ~dur:o.cost;
        span t ~id:uid ~cat:"commit" ~name:"commit-wait" ~ts:fin ~dur:(commit -. fin);
        { r_ready = ready; r_start = start; r_fin = fin; r_commit = commit;
          r_rollbacks = 0 }
    | Optimistic ->
        (* Execute speculatively on the first free worker; validate at
           commit and roll back if a conflicting predecessor was still
           running when we started. *)
        let w = argmin_free t in
        let start0 = Stdlib.max now t.workers.(w) in
        let rb = t.service.rollback_cost in
        let rec attempt start (o : Smr.Service.outcome) n_roll =
          let fin = start +. o.cost in
          let stale =
            List.filter
              (fun e -> e.i_fin > start && Btree.Keyset.overlaps e.i_writes reads)
              t.active
          in
          if stale = [] then (start, fin, o, n_roll)
          else begin
            t.conflicts <- t.conflicts + 1;
            t.rollbacks <- t.rollbacks + 1;
            (match o.undo with Some u -> u () | None -> ());
            Sim.Stats.Busy.add ~at:fin t.busy rb;
            span t ~id:uid ~cat:"rollback" ~name:"rollback" ~ts:fin ~dur:rb;
            let settled =
              List.fold_left (fun a e -> Stdlib.max a e.i_fin) 0.0 stale
            in
            let start' = Stdlib.max settled (fin +. rb) in
            let o' = t.service.execute op in
            Sim.Stats.Busy.add ~at:start' t.busy o'.cost;
            span t ~id:uid ~cat:"execute" ~name:"re-execute" ~ts:start' ~dur:o'.cost;
            attempt start' o' (n_roll + 1)
          end
        in
        let o0 = t.service.execute op in
        Sim.Stats.Busy.add ~at:start0 t.busy o0.cost;
        span t ~id:uid ~cat:"dispatch" ~name:"worker-wait" ~ts:now ~dur:(start0 -. now);
        span t ~id:uid ~cat:"execute" ~name:"execute" ~ts:start0
          ~dur:o0.Smr.Service.cost;
        let _, fin, _, n_roll = attempt start0 o0 0 in
        t.workers.(w) <- fin;
        let commit = commit_in_order t fin in
        span t ~id:uid ~cat:"commit" ~name:"commit-wait" ~ts:fin ~dur:(commit -. fin);
        { r_ready = now; r_start = start0; r_fin = fin; r_commit = commit;
          r_rollbacks = n_roll }
  in
  t.executed <- t.executed + 1;
  t.active <-
    { i_reads = reads; i_writes = writes; i_fin = report.r_fin } :: t.active;
  report

(* A read-only command: no ordering among reads and no in-order commit
   (P-SMR, arXiv 1311.6183).  It runs on the earliest-free worker once
   every in-flight writer of its keys has finished, and stays in [active]
   with an empty write set so that later conflicting writes wait for it
   under [Pessimistic]; under [Optimistic] it can never make a command's
   reads stale, so it never causes a rollback. *)
let read t ~now ~reads op =
  t.clock <- Stdlib.max t.clock now;
  let now = t.clock in
  prune t;
  let ready = deps_done t ~now ~reads ~writes:Btree.Keyset.empty in
  let _, _, fin = run_on_worker t ~ready op in
  t.active <-
    { i_reads = reads; i_writes = Btree.Keyset.empty; i_fin = fin } :: t.active;
  fin

let executed t = t.executed
let rollbacks t = t.rollbacks
let conflicts t = t.conflicts
let last_commit t = t.last_commit
let n_workers t = Array.length t.workers
let inflight t = List.length t.active

let conflict_rate t =
  if t.executed = 0 then 0.0
  else float_of_int t.conflicts /. float_of_int t.executed

let utilization t ~from ~till =
  Sim.Stats.Busy.utilization t.busy ~from ~till
  /. float_of_int (Array.length t.workers)
