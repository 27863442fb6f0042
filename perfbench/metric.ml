(* Named, unit-carrying metric values and their JSON rendering. *)

type t = { name : string; unit_ : string; value : float }

let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n > 0 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s

let valid_unit s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n > 0 && n <= 16 && String.for_all ok_char s

let make name unit_ value =
  if not (valid_name name) then invalid_arg ("Metric.make: bad name " ^ name);
  if not (valid_unit unit_) then invalid_arg ("Metric.make: bad unit " ^ unit_);
  if not (Float.is_finite value) then
    invalid_arg ("Metric.make: non-finite value for " ^ name);
  { name; unit_; value }

(* Shortest decimal that reads back as the same float, so no digit of a
   measurement is lost. *)
let number v =
  let s = Printf.sprintf "%.15g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let to_json m =
  ( m.name,
    json_object [ ("value", number m.value); ("unit", Printf.sprintf "%S" m.unit_) ] )

(* The result line: exactly [correct], [attempted], [failed], [metrics]. *)
let result_line ~correct ~attempted ~failed metrics =
  json_object
    [ ("correct", string_of_bool correct);
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ("metrics", json_object (List.map to_json metrics)) ]
