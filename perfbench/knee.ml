(* Knee search by bracketing: double the offered rate from [start] until a
   rate fails, then bisect between the last pass and the first failure
   until the bracket is narrower than [resolution] of its lower end.  The
   knee is the highest rate seen to pass.  A search that never sees a
   failure below [ceiling] (it "ran off the top"), or whose very first
   rate fails, has not bracketed anything and says so. *)

type t = {
  knee : float;  (** highest passing rate; 0 when even [start] failed *)
  bracketed : bool;
  probes : (float * bool) list;  (** every rate tried, in order *)
}

let search ~start ~ceiling ~resolution pass =
  if not (start > 0.0 && ceiling >= start) then
    invalid_arg "Knee.search: need 0 < start <= ceiling";
  if not (resolution > 0.0 && resolution < 0.1) then
    invalid_arg "Knee.search: resolution must lie in (0, 0.1)";
  let probes = ref [] in
  let try_rate r =
    let ok = pass r in
    probes := (r, ok) :: !probes;
    ok
  in
  let finish knee bracketed = { knee; bracketed; probes = List.rev !probes } in
  (* Doubling phase: [lo] passed, the next candidate is [2 lo]. *)
  let rec double lo =
    let hi = lo *. 2.0 in
    if hi > ceiling then finish lo false
    else if try_rate hi then double hi
    else bisect lo hi
  and bisect lo hi =
    if hi -. lo <= resolution *. lo then finish lo true
    else begin
      let mid = (lo +. hi) /. 2.0 in
      if try_rate mid then bisect mid hi else bisect lo mid
    end
  in
  if try_rate start then double start else finish 0.0 false
