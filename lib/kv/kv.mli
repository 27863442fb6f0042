(** A replicated key-value service over the full stack — client proxy →
    {!Protocol.Batcher} (inside the ring proposers) → {!Ringpaxos.Mring}
    ordered delivery → {!Psmr.Executor} dependency-aware execution →
    {!Smr.Btree_service} storage — plus a lease-based read-serving tier:

    - every replica periodically proposes itself a whole-keyspace
      {e lease} through the ordered log (a grant carries an absolute
      expiry stamped at submit time); the lease table is log-driven, so
      replicas agree on it at every log position;
    - a lease holder answers single-key reads {e locally}, without a
      consensus round, while its own lease is valid and covers the keys
      ({!Btree.Keyset.subset}); the read runs as a read-only command on
      the holder's executor workers ({!Psmr.Executor.read}) and its reply
      is sized like the ordered path's;
    - a conflicting write {e revokes its keys}, and only those, when
      applied: the epoch of every overlapping lease bumps, the leases stay
      valid for every other key, and the write's client response is held
      until every other replica whose lease covered it has acknowledged
      applying it — or that lease's deadline has provably passed;
    - a replica stops serving a written key while another holder may not
      have applied the write yet ({!Btree.Keyset.diff} of its servable
      keys).  Each holder that applies a write covered by its own lease
      proposes a fresh grant at once (at most one in flight per replica,
      beside the periodic renewals), stamped with the log position it has
      applied; the key comes back once every other holder's grant proves
      that position, or that holder's lease expires.  An ordered read of
      such a key is answered only then too, so no reader sees a value that
      a lagging holder could still serve older;
    - a client whose local read is refused falls back to the ordered
      path; it backs that replica off only when the replica holds no
      valid lease (or the read timed out against a dead replica), not
      for a key revoked under a valid lease, which the re-grants restore
      within a consensus round.

    Validity checks compare against the simulation's single virtual clock,
    i.e. perfect clock synchronisation — the classical lease assumption,
    here exact by construction.  The design follows quorum leases (Moraru
    et al., SoCC'14) specialised to full-replica leases, with the
    holders' "applied" notices carried by their grants through the log.

    Histories (reads with observed values, uniquely-valued writes) can be
    recorded and checked against {!Smr.Linearizability.Kv}. *)

module Ycsb = Ycsb
module Slo = Slo

type config = {
  n_replicas : int;
  n_workers : int;  (** executor worker threads per replica *)
  ring : Ringpaxos.Mring.config;
      (** the default's [proposer_buffer] is the coordinator's pipeline,
          [window * batch_bytes], split over 4 client proxies *)
  executor : Psmr.Executor.mode;
      (** [Pessimistic] dispatches each command once its conflicting
          predecessors finish (arXiv 1311.6183); [Optimistic] executes
          speculatively and rolls back stale reads at commit (arXiv
          1404.6721) *)
  leases : bool;  (** grant leases and serve local reads *)
  lease_dur : float;  (** lease length, seconds of virtual time *)
  lease_backoff : float;
      (** client-side backoff per replica after a nack from a replica with
          no valid lease, or a local-read timeout; a nack for a revoked key
          under a valid lease backs off nothing *)
  read_timeout : float;  (** local-read timeout against a dead replica *)
  initial_keys : int;
  key_range : int;
  record_history : bool;  (** keep a {!Smr.Linearizability.Kv} history *)
}

val default_config : config

type Simnet.payload +=
  | KOp of { op : Simnet.payload; reads : Btree.Keyset.t; writes : Btree.Keyset.t }
  | KGrant of { replica : int; keys : Btree.Keyset.t; until : float; seen : int }
      (** [seen]: the log position [replica] had applied when it proposed
          the grant *)
  | KResp of { uid : int; obs : int option }
  | KWAck of { uid : int; replica : int }
  | KReadReq of { rid : int; client : int; lo : int; hi : int }
  | KReadResp of { rid : int; ok : bool; held : bool; obs : int option }
      (** [held]: the replica's lease was valid when it answered (a nack
          with [held] refused only a revoked key) *)

type t

(** [create net cfg ~n_clients] builds the deployment: one ring,
    [n_clients] client proxies, [cfg.n_replicas] learner replicas (each
    with its own btree and executor).  [on_broadcast]/[on_deliver] tap the
    ordered stream for an external safety auditor (chaos harness). *)
val create :
  ?on_broadcast:(uid:int -> unit) ->
  ?on_deliver:(replica:int -> uid:int -> unit) ->
  Simnet.t ->
  config ->
  n_clients:int ->
  t

(** [start_open t wl ~until] drives arrivals from an open-loop workload
    (e.g. a {!Ycsb} preset) until the virtual-time horizon: single-key
    reads go to the lease tier when one is available, everything else
    through the ordered log.  Also starts the lease-renewal loops. *)
val start_open : t -> Smr.Workload.Open_loop.t -> until:float -> unit

(** Per-class latency meters ("read-local", "read", "update", "insert",
    "scan"). *)
val slo : t -> Slo.t

(** Ops answered so far, over every class of {!slo}. *)
val completed : t -> int

(** Event counters (kv_local_reads, kv_local_nacks, kv_lease_grants,
    kv_lease_regrants, kv_lease_invalidations, kv_wacks,
    kv_deadline_responses, kv_read_timeouts, kv_drops, ...).
    [kv_lease_grants] counts periodic renewals and [kv_lease_regrants] the
    prompt re-grants after a revocation, together every grant item the
    ring orders; [kv_lease_invalidations] counts key revocations, one per
    write and overlapping lease, as replica 0 applies them;
    [kv_deferred_reads] counts ordered reads held on a revoked key. *)
val counters : t -> (string * int) list

val counter : t -> string -> int

(** The ring's own protocol counters ({!Ringpaxos.Mring.counters}). *)
val ring_counters : t -> (string * int) list

(** Ordered-path commands accepted by a proposer. *)
val issued : t -> int

(** Ordered-path arrivals shed at the proxy because the proposer's intake
    credit ([ring.proposer_buffer]) was spent; never recorded in {!slo}. *)
val drops : t -> int

(** Write responses still deferred on lease acknowledgements. *)
val pending_writes : t -> int

(** Commands executed, summed across replicas. *)
val executed : t -> int

(** Speculative re-executions ([Optimistic] executor), summed across
    replicas; always 0 under [Pessimistic]. *)
val rollbacks : t -> int

(** Mean executor-worker utilisation of [replica] over a window, percent
    (ordered commands and lease-served reads alike). *)
val worker_utilization : t -> replica:int -> from:float -> till:float -> float

(** Crash the ring's current coordinator; a spare acceptor takes over and
    the service keeps serving. *)
val kill_coordinator : t -> unit

(** Fingerprint of replica [r]'s btree (replicas must agree). *)
val state_fingerprint_at : t -> int -> int

(** Conflicting-write revocations [replica] has applied to its own
    lease. *)
val lease_epoch : t -> replica:int -> int

val replica_proc : t -> int -> Simnet.proc
val client_proc : t -> int -> Simnet.proc

(** The recorded history (requires [record_history]); writes that were
    issued and applied but never acknowledged are kept with an open
    response time. *)
val history : t -> Smr.Linearizability.Kv.op list

(** Run {!Smr.Linearizability.Kv.check} over {!history} against the
    pre-run tree contents. *)
val check_history : t -> bool

(** White-box hooks for the broken-lease regression test. *)
module Testing : sig
  (** Make every replica keep serving local reads even when its lease has
      expired or been invalidated — the bug the linearizability checker
      must catch. *)
  val break_leases : t -> unit

  (** Offer one arrival now, as {!start_open} would at its due time. *)
  val issue : t -> Smr.Workload.Open_loop.arrival -> unit
end
