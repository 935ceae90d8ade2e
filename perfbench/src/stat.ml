(** Order statistics for the benchmark's samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* linear interpolation between closest ranks *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.quantile: no samples";
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i + 1 >= n then a.(n - 1)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

(** Samples needed before quantile [q] has at least [beyond] samples
    above it; a percentile is only ever reported from that many. *)
let needed ?(beyond = 10) q =
  int_of_float (Float.ceil (float_of_int beyond /. (1.0 -. q) -. 1e-9))

let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = sum xs /. float_of_int (max 1 (List.length xs))

