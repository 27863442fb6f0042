(* A fixed calibration loop that measures how fast this machine is right
   now.  Wall-clock results are rescaled by it, because the cores are
   shared: over minutes the same simulation ran anywhere from 1x to 2x its
   quietest time, while the median ratio to this loop, timed beside it,
   moved by a few percent.  The loop fills and probes a 2^13-entry
   hashtable at random 32 times, with a stream of short-lived allocations:
   a cache-sized working set like the simulator's hot path.  (A 2^18-entry
   table, which misses the cache, tracked the simulator's slowdowns only
   half as well.)  It never changes with the code under test. *)

(* The loop's wall time on a quiet 2-vCPU x86-64 container; rescaled
   results read as if measured on that machine. *)
let nominal_s = 0.03

let work () =
  let n = 1 lsl 13 in
  let acc = ref 0 in
  let x = ref 12345 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    !x
  in
  for _ = 1 to 32 do
    let h = Hashtbl.create n in
    for i = 0 to n - 1 do
      Hashtbl.replace h (next ()) i
    done;
    for _ = 0 to n - 1 do
      match Hashtbl.find_opt h (next ()) with Some v -> acc := !acc + v | None -> incr acc
    done;
    let l = ref [] in
    for i = 0 to n - 1 do
      l := (i, float_of_int i) :: !l;
      if i land 1023 = 0 then l := []
    done
  done;
  !acc

(* Seconds one pass of the loop takes now. *)
let time () =
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (work ()));
  Unix.gettimeofday () -. t0
