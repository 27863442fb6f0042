(** Dependency-aware parallel executor with optimistic conflict detection.

    Commands declare read/write key-sets ({!Btree.Keyset}) over the
    replicated btree service; a dependency tracker dispatches each command
    to one of N simulated worker threads as soon as its conflicting
    predecessors finish ([Pessimistic], after arXiv 1311.6183), or
    speculatively with read-write conflict detection and rollback at
    commit ([Optimistic], after arXiv 1404.6721).

    Submissions must arrive in log (decided) order with monotone [now];
    state is applied to the service in that order, so replicas running the
    same stream stay identical and the final state always equals the
    sequential reference.  Commits are in log order too.  Per-stage spans
    (queue / dispatch / execute / rollback / commit) feed the {!Trace}
    latency decomposition when a tracer is installed. *)

type mode = Pessimistic | Optimistic

type report = {
  r_ready : float;  (** dependencies settled (pessimistic) / submit time *)
  r_start : float;  (** first (speculative) execution start *)
  r_fin : float;  (** final execution finish, after any re-executions *)
  r_commit : float;  (** in-order commit time *)
  r_rollbacks : int;  (** re-executions this command needed *)
}

type t

(** [create ~mode ~n_workers service] — [tracer]/[pid] route the stage
    spans into a latency decomposition. *)
val create :
  ?tracer:Trace.t -> ?pid:int -> mode:mode -> n_workers:int -> Smr.Service.t -> t

(** [submit t ~now ~uid ~reads ~writes op] schedules, executes and commits
    one decided command.  [now] must be monotone across calls (an earlier
    value is clamped to the latest seen). *)
val submit :
  t ->
  now:float ->
  uid:int ->
  reads:Btree.Keyset.t ->
  writes:Btree.Keyset.t ->
  Simnet.payload ->
  report

(** [read t ~now ~reads op] runs the read-only command [op] on the
    earliest-free worker once every in-flight write to [reads] has
    finished, and returns its finish time.  Reads are not ordered among
    themselves: they skip in-order commit and leave {!executed},
    {!rollbacks}, {!conflicts} and {!last_commit} unchanged.  Later
    conflicting writes wait for the read under [Pessimistic]; under
    [Optimistic] a read never triggers a rollback.  No stage spans. *)
val read : t -> now:float -> reads:Btree.Keyset.t -> Simnet.payload -> float

val executed : t -> int

(** Commands that were rolled back and re-executed (counted once per
    re-execution). *)
val rollbacks : t -> int

(** Read-write conflicts detected at commit. *)
val conflicts : t -> int

(** [conflicts / executed]. *)
val conflict_rate : t -> float

(** Commit time of the latest committed command. *)
val last_commit : t -> float

val n_workers : t -> int

(** Commands the dependency tracker still holds as potentially in flight. *)
val inflight : t -> int

(** Mean worker utilisation over a window, percent. *)
val utilization : t -> from:float -> till:float -> float
