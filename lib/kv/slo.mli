(** Per-operation-class SLO meters.

    Latencies are bucketed by class (read-local, read, update, insert,
    scan, ...) into streaming {!Sim.Stats.Latency} recorders; reports
    quote p50/p99/p999 rather than means, following "The Performance of
    Paxos in the Cloud" (arXiv 1404.6719): tail latency, not the average,
    is what production SLOs bind. *)

type row = {
  cls : string;
  count : int;
  mean_ms : float;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  max_ms : float;
}

type t

val create : unit -> t

(** [add t ~cls lat] records one latency sample (seconds). *)
val add : t -> cls:string -> float -> unit

(** Classes in first-seen order (the order {!rows} reports). *)
val classes : t -> string list

(** The raw recorder of a class, if any sample was recorded. *)
val latency : t -> string -> Sim.Stats.Latency.t option

(** [row_of t cls] summarises one class; a class with no samples yields a
    zero-count row and is not added to {!classes}. *)
val row_of : t -> string -> row
val rows : t -> row list

(** A fixed-width SLO table (header + one line per class). *)
val render : t -> string

(** One row as a JSON object (no trailing newline). *)
val json_row : row -> string
