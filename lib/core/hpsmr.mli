(** High-Performance State-Machine Replication — public facade.

    This library reproduces Marandi & Pedone's {e High-Performance
    State-Machine Replication} (DSN 2011 line of work): the Ring Paxos
    family of atomic broadcast protocols, SMR with speculative execution and
    state partitioning, Multi-Ring Paxos atomic multicast and Parallel SMR,
    all running on a deterministic discrete-event network simulator.

    Quick start: a replicated KV service driven by a YCSB preset.
    {[
      let env = Hpsmr.Env.create ~seed:42 () in
      let kv = Hpsmr.Kv.create env.net Hpsmr.Kv.default_config ~n_clients:4 in
      let wl =
        Hpsmr.Kv.Ycsb.workload Hpsmr.Kv.Ycsb.B (Hpsmr.Sim.Rng.create 1)
          ~rate:(Hpsmr.Smr.Workload.Open_loop.Constant 5_000.0)
      in
      Hpsmr.Kv.start_open kv wl ~until:1.0;
      Hpsmr.Env.run env ~for_:1.5;
      print_string (Hpsmr.Kv.Slo.render (Hpsmr.Kv.slo kv))
    ]}

    For full control use the re-exported libraries below — they are the
    real implementation, not wrappers. *)

(** {1 Re-exported libraries} *)

module Sim = Sim
(** Discrete-event engine, RNG, statistics. *)

module Simnet = Simnet
(** Simulated network: nodes, processes, unicast/multicast, failures. *)

module Storage = Storage
(** Simulated disks. *)

module Paxos = Paxos
(** Basic Paxos (Algorithm 1) and consensus values. *)

module Ringpaxos = Ringpaxos
(** M-Ring Paxos and U-Ring Paxos — the core contribution. *)

module Abcast = Abcast
(** Baseline atomic broadcast protocols, presets, measurement helpers. *)

module Btree = Btree
(** The in-memory B+-tree service. *)

module Smr = Smr
(** State-machine replication with speculation and partitioning (Ch. 4). *)

module Multiring = Multiring
(** Multi-Ring Paxos atomic multicast (Ch. 5). *)

module Psmr = Psmr
(** Parallel SMR (Ch. 6). *)

module Kv = Kv
(** The replicated key-value service over the full stack (M-Ring Paxos,
    parallel executor, B+-tree) with lease-based local reads and
    YCSB workloads. *)

module Cloud = Cloud
(** Cloud evaluation harness (Ch. 7). *)

(** {1 Convenience environment} *)

module Env : sig
  type t = { engine : Sim.Engine.t; net : Simnet.t; rng : Sim.Rng.t }

  (** [create ~seed ()] builds a deterministic simulation environment on a
      gigabit LAN. *)
  val create : ?seed:int -> ?config:Simnet.config -> unit -> t

  (** [run env ~for_] advances the simulation by [for_] seconds. *)
  val run : t -> for_:float -> unit

  val now : t -> float
end
