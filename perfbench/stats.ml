(* Order statistics for the benchmark's reports. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array: the [ceil (q * n)]-th
   smallest sample. *)
let rank_value a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let r = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) in
    a.(max 0 (min (n - 1) (r - 1)))

(* The middle value, or the mean of the two middle values. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Samples that must lie beyond a reported tail percentile. *)
let tail_min_beyond = 10

type tail = { t_q : float; t_value : float; t_n : int; t_beyond : int }

(* The highest percentile, capped at [cap], that has at least
   [tail_min_beyond] samples beyond it; the median when the sample is
   too small for any higher one. *)
let tail ?(cap = 0.99) xs =
  let a = sorted xs in
  let n = Array.length a in
  let q =
    if n = 0 then 0.5
    else Float.max 0.5 (Float.min cap (float_of_int (n - tail_min_beyond) /. float_of_int n))
  in
  let v = rank_value a q in
  let r = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) in
  { t_q = q; t_value = v; t_n = n; t_beyond = n - r }

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default "exclusive" method), for the spread the benchmark
   reports next to each median. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then
    let v = if n = 1 then a.(0) else 0.0 in
    (v, v, v)
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)
