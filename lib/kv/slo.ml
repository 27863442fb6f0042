type row = {
  cls : string;
  count : int;
  mean_ms : float;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  max_ms : float;
}

type t = {
  meters : (string, Sim.Stats.Latency.t) Hashtbl.t;
  mutable order : string list;  (* first-seen order, for stable tables *)
}

let create () = { meters = Hashtbl.create 8; order = [] }

let meter t cls =
  match Hashtbl.find_opt t.meters cls with
  | Some m -> m
  | None ->
      let m = Sim.Stats.Latency.create () in
      Hashtbl.add t.meters cls m;
      t.order <- t.order @ [ cls ];
      m

let add t ~cls lat = Sim.Stats.Latency.add (meter t cls) lat

let classes t = t.order

let latency t cls = Hashtbl.find_opt t.meters cls

(* A class never recorded reads as a zero-count row; looking it up must
   not register it, or a read accessor would change later [rows]. *)
let row_of t cls =
  let m =
    match latency t cls with Some m -> m | None -> Sim.Stats.Latency.create ()
  in
  let ms v = v *. 1e3 in
  { cls;
    count = Sim.Stats.Latency.count m;
    mean_ms = ms (Sim.Stats.Latency.mean m);
    p50_ms = ms (Sim.Stats.Latency.percentile m 0.50);
    p99_ms = ms (Sim.Stats.Latency.percentile m 0.99);
    p999_ms = ms (Sim.Stats.Latency.percentile m 0.999);
    max_ms = ms (Sim.Stats.Latency.max m) }

let rows t = List.map (row_of t) t.order

let render t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "  %-12s %8s %9s %9s %9s %9s %9s\n" "class" "count"
       "mean(ms)" "p50(ms)" "p99(ms)" "p999(ms)" "max(ms)");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "  %-12s %8d %9.3f %9.3f %9.3f %9.3f %9.3f\n" r.cls
           r.count r.mean_ms r.p50_ms r.p99_ms r.p999_ms r.max_ms))
    (rows t);
  Buffer.contents b

let json_row r =
  Printf.sprintf
    "{\"class\":%S,\"count\":%d,\"mean_ms\":%.6f,\"p50_ms\":%.6f,\"p99_ms\":%.6f,\"p999_ms\":%.6f,\"max_ms\":%.6f}"
    r.cls r.count r.mean_ms r.p50_ms r.p99_ms r.p999_ms r.max_ms
