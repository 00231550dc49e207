(* Order statistics over repeated measurements.  Quartiles follow
   Python's [statistics.quantiles(values, n=4)] (the "exclusive"
   method), so the spreads printed here are the ones anyone
   recomputes from the emitted values. *)

let sorted values = List.sort compare values |> Array.of_list

(* Python's exclusive-method quantile at cut point [i] of [n], over the
   sorted array [a]. *)
let quantile_cut a ~n ~i =
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Qstats: no values"
  else if ld = 1 then a.(0)
  else
    let m = ld + 1 in
    let j = max 1 (min (ld - 1) (i * m / n)) in
    let delta = (i * m) - (j * n) in
    ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
    /. float_of_int n

let quartiles values =
  let a = sorted values in
  (quantile_cut a ~n:4 ~i:1, quantile_cut a ~n:4 ~i:2, quantile_cut a ~n:4 ~i:3)

let median values =
  let a = sorted values in
  let m = Array.length a in
  if m = 0 then invalid_arg "Qstats.median: no values"
  else if m mod 2 = 1 then a.(m / 2)
  else (a.((m / 2) - 1) +. a.(m / 2)) /. 2.0

(* Interquartile range as a share of the median. *)
let spread values =
  let q1, q2, q3 = quartiles values in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. q2

let geomean = function
  | [] -> invalid_arg "Qstats.geomean: no values"
  | values ->
      let n = float_of_int (List.length values) in
      exp (List.fold_left (fun acc v -> acc +. log v) 0.0 values /. n)
