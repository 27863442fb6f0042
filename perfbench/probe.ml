(* Per-layer instrumentation for the traced run, attached from outside the
   stack: the [on_broadcast]/[on_deliver] taps of [Kv.create] time ordering
   and replica lag, and every process handler is wrapped through
   [Simnet.handler_of]/[set_handler] (the hook the layers use to wrap each
   other) to count messages, time handler wall-clock self time and observe
   the public [Kv] payloads at clients and replicas.  Nothing here
   schedules events or draws randomness, so a traced run's virtual-time
   behaviour is the untraced run's. *)

module L = Sim.Stats.Latency

type role = Proposer | Acceptor | Learner | Other

let role_name = function
  | Proposer -> "proposer"
  | Acceptor -> "acceptor"
  | Learner -> "learner"
  | Other -> "other"

let roles = [ Proposer; Acceptor; Learner ]

(* Ring processes are named "mr-prop<i>", "mr-acc<i>" and "mr-lrn<i>". *)
let role_of_name s =
  let has prefix = String.starts_with ~prefix s in
  if has "mr-prop" then Proposer
  else if has "mr-acc" then Acceptor
  else if has "mr-lrn" then Learner
  else Other

(* Every process of a network, in pid order. *)
let procs net =
  let rec go pid acc =
    match Simnet.proc_of net pid with
    | p -> go (pid + 1) (p :: acc)
    | exception Invalid_argument _ -> List.rev acc
  in
  go 0 []

type proc_stat = {
  role : role;
  mutable msgs : int;  (** messages handled *)
  mutable ring_msgs : int;  (** of which ring traffic, not a [Kv] payload *)
  mutable self_s : float;  (** wall-clock seconds inside the handler *)
}

type t = {
  net : Simnet.t;
  n_replicas : int;
  bcast : (int, float) Hashtbl.t;  (* uid -> broadcast instant *)
  first : (int, float) Hashtbl.t;  (* uid -> first replica delivery *)
  seen : (int, int) Hashtbl.t;  (* uid -> replicas delivered so far *)
  at_responder : (int, float) Hashtbl.t;  (* uid -> delivery at responder *)
  read_req : (int, float) Hashtbl.t;  (* rid -> KReadReq at the replica *)
  order : L.t;  (** broadcast -> first replica delivery *)
  lag : L.t;  (** first -> last replica delivery *)
  reply : L.t;  (** delivery at the responder -> KResp at the client *)
  local_read : L.t;  (** KReadReq at the replica -> KReadResp at the client *)
  mutable delivered : int;  (** items delivered, summed over replicas *)
  mutable stats : proc_stat list;
}

let create net ~n_replicas =
  { net;
    n_replicas;
    bcast = Hashtbl.create 65536;
    first = Hashtbl.create 65536;
    seen = Hashtbl.create 65536;
    at_responder = Hashtbl.create 65536;
    read_req = Hashtbl.create 4096;
    order = L.create ();
    lag = L.create ();
    reply = L.create ();
    local_read = L.create ();
    delivered = 0;
    stats = [] }

let on_broadcast t ~uid = Hashtbl.replace t.bcast uid (Simnet.now t.net)

let on_deliver t ~replica ~uid =
  let now = Simnet.now t.net in
  t.delivered <- t.delivered + 1;
  (match Hashtbl.find_opt t.seen uid with
  | None ->
      (match Hashtbl.find_opt t.bcast uid with
      | Some b ->
          Hashtbl.remove t.bcast uid;
          L.add t.order (now -. b)
      | None -> ());
      if t.n_replicas = 1 then L.add t.lag 0.0
      else begin
        Hashtbl.replace t.first uid now;
        Hashtbl.replace t.seen uid 1
      end
  | Some k when k + 1 >= t.n_replicas ->
      L.add t.lag (now -. Hashtbl.find t.first uid);
      Hashtbl.remove t.first uid;
      Hashtbl.remove t.seen uid
  | Some k -> Hashtbl.replace t.seen uid (k + 1));
  if Paxos.Value.uid_seq uid mod t.n_replicas = replica then
    Hashtbl.replace t.at_responder uid now

(* Look at a message before the wrapped handler consumes it. *)
let observe t (m : Simnet.msg) =
  match m.Simnet.payload with
  | Kv.KResp { uid; _ } -> (
      match Hashtbl.find_opt t.at_responder uid with
      | Some d ->
          Hashtbl.remove t.at_responder uid;
          L.add t.reply (Simnet.now t.net -. d)
      | None -> ())
  | Kv.KReadReq { rid; _ } -> Hashtbl.replace t.read_req rid (Simnet.now t.net)
  | Kv.KReadResp { rid; ok; _ } -> (
      match Hashtbl.find_opt t.read_req rid with
      | Some r ->
          Hashtbl.remove t.read_req rid;
          if ok then L.add t.local_read (Simnet.now t.net -. r)
      | None -> ())
  | _ -> ()

let kv_payload = function
  | Kv.KReadReq _ | Kv.KReadResp _ | Kv.KWAck _ | Kv.KResp _ -> true
  | _ -> false

(* Wrap every process handler of the network (call after [Kv.create]). *)
let attach t =
  t.stats <-
    List.map
      (fun proc ->
        let st =
          { role = role_of_name (Simnet.proc_name proc); msgs = 0; ring_msgs = 0;
            self_s = 0.0 }
        in
        let prev = Simnet.handler_of proc in
        Simnet.set_handler proc (fun m ->
            st.msgs <- st.msgs + 1;
            if not (kv_payload m.Simnet.payload) then st.ring_msgs <- st.ring_msgs + 1;
            observe t m;
            let t0 = Unix.gettimeofday () in
            prev m;
            st.self_s <- st.self_s +. (Unix.gettimeofday () -. t0));
        st)
      (procs t.net)

let of_role t role = List.filter (fun st -> st.role = role) t.stats
let handler_wall_s t = List.fold_left (fun a st -> a +. st.self_s) 0.0 t.stats
let msgs t = List.fold_left (fun a st -> a + st.msgs) 0 t.stats
let self_s t role = List.fold_left (fun a st -> a +. st.self_s) 0.0 (of_role t role)
let role_msgs t role = List.fold_left (fun a st -> a + st.msgs) 0 (of_role t role)

let learner_ring_msgs t =
  List.fold_left (fun a st -> a + st.ring_msgs) 0 (of_role t Learner)
