type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean: empty sample";
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let stddev xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.stddev: empty sample";
  if n = 1 then 0.
  else begin
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
    sqrt (ss /. float_of_int (n - 1))
  end

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  (* Float.compare, not polymorphic compare: NaN breaks the latter's order *)
  Array.sort Float.compare sorted;
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

let summarize xs =
  if Array.length xs = 0 then invalid_arg "Stats.summarize: empty sample";
  let mn = Array.fold_left min xs.(0) xs and mx = Array.fold_left max xs.(0) xs in
  {
    count = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = mn;
    max = mx;
    p50 = percentile xs 50.;
    p95 = percentile xs 95.;
    p99 = percentile xs 99.;
  }
