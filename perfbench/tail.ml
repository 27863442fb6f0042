(* Sample arithmetic shared by every reported timing. *)

(* Nearest-rank-below percentile of an ascending array, reported only when
   at least [min_beyond] samples lie strictly above the quantile: a p99
   needs 902 samples, a median 20. *)
let min_beyond = 10

let percentile sorted q =
  let n = Array.length sorted in
  if not (q >= 0.0 && q < 1.0) then invalid_arg "Tail.percentile: q";
  let idx = int_of_float (q *. float_of_int (n - 1)) in
  if n = 0 || n - 1 - idx < min_beyond then None else Some sorted.(idx)

let median_of = function
  | [] -> invalid_arg "Tail.median_of: empty"
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Samples at or below [limit] in an ascending array. *)
let count_within sorted limit =
  let rec go lo hi =
    (* invariant: sorted.(i) <= limit for i < lo, > limit for i >= hi *)
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if sorted.(mid) <= limit then go (mid + 1) hi else go lo mid
    end
  in
  go 0 (Array.length sorted)

(* Share of generated operations that never got an answer. *)
let failed_frac ~generated ~answered =
  if generated <= 0 then invalid_arg "Tail.failed_frac: nothing generated";
  if answered < 0 || answered > generated then
    invalid_arg "Tail.failed_frac: answered outside [0, generated]";
  float_of_int (generated - answered) /. float_of_int generated
