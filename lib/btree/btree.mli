(** In-memory B+-tree over [int] keys and values — the replicated service of
    Chapter 4 (§4.4.2: insert, delete and range queries over 8-byte
    integers).

    Leaves are linked for efficient range scans.  The structure is
    deterministic: replicas applying the same operation sequence hold
    structurally identical trees, which the SMR tests rely on. *)

type t

(** [create ~order ()] makes an empty tree; [order] is the maximum number of
    keys per node (default 64, minimum 4). *)
val create : ?order:int -> unit -> t

(** [insert t k v] inserts or overwrites; returns the previous value. *)
val insert : t -> int -> int -> int option

(** [delete t k] removes [k]; returns the value it had. *)
val delete : t -> int -> int option

val find : t -> int -> int option

(** [range t ~lo ~hi] is the [(key, value)] pairs with [lo <= key <= hi],
    in ascending key order. *)
val range : t -> lo:int -> hi:int -> (int * int) list

(** [range_count t ~lo ~hi] counts without materialising. *)
val range_count : t -> lo:int -> hi:int -> int

(** Number of keys stored. *)
val size : t -> int

val min_key : t -> int option
val max_key : t -> int option

(** [iter t f] visits all pairs in ascending key order. *)
val iter : t -> (int -> int -> unit) -> unit

(** [check t] verifies structural invariants (sorted keys, node occupancy,
    leaf links, consistent depth); raises [Failure] on violation. *)
val check : t -> unit

(** [populate t ~n ~key_range ~seed] inserts [n] distinct random keys
    (value = key), for experiment setup. *)
val populate : t -> n:int -> key_range:int -> seed:int -> unit

(** Key-set conflict predicate for parallel executors: normalised sets of
    inclusive key ranges with a linear-merge overlap test.  Two commands
    conflict when either's write set intersects the other's read or write
    set; read-read sharing is always safe. *)
module Keyset : sig
  type t

  val empty : t

  (** The whole key space ([min_int, max_int]): a command that conflicts
      with everything, e.g. a multi-object update of unknown footprint. *)
  val full : t

  val is_empty : t -> bool
  val singleton : int -> t

  (** [range ~lo ~hi] is empty when [hi < lo]. *)
  val range : lo:int -> hi:int -> t

  (** [of_ranges l] sorts, de-duplicates and merges overlapping or
      adjacent ranges; empty ranges are dropped. *)
  val of_ranges : (int * int) list -> t

  (** The normalised ranges, ascending and disjoint. *)
  val ranges : t -> (int * int) list

  val overlaps : t -> t -> bool

  (** [subset a b] — every key of [a] lies in [b] (the lease read tier
      asks whether a read's key-set is covered by a held lease). *)
  val subset : t -> t -> bool

  (** [diff a b] — the keys of [a] that are not in [b] (a write revokes
      its keys from a held lease). *)
  val diff : t -> t -> t

  (** [conflict ~r1 ~w1 ~r2 ~w2] — command 1 reads [r1] / writes [w1],
      command 2 reads [r2] / writes [w2]. *)
  val conflict : r1:t -> w1:t -> r2:t -> w2:t -> bool
end
