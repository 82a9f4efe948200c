(* Walker/Vose alias method: the normalized pmf is preprocessed once into
   [prob]/[alias] tables, after which every sample costs one table row —
   one uniform index draw plus one biased coin — instead of the O(log n)
   CDF binary search of the previous implementation. The fleet simulation
   draws millions of ranks, so sampling must not scale with the catalog. *)

type t = { n : int; prob : float array; alias : int array }

let create ?(exponent = 1.0) ~n () =
  if n < 1 then invalid_arg "Zipf.create: n must be positive";
  let weights = Array.init n (fun k -> 1. /. Float.pow (float_of_int (k + 1)) exponent) in
  let total = Array.fold_left ( +. ) 0. weights in
  let pmf = Array.map (fun w -> w /. total) weights in
  (* Vose preprocessing: split ranks into under- and over-full relative to
     the uniform 1/n, then pair each under-full rank with an over-full
     donor. Every rank ends with prob in [0,1] and a donor alias. *)
  let nf = float_of_int n in
  let scaled = Array.map (fun p -> p *. nf) pmf in
  let prob = Array.make n 1. in
  let alias = Array.init n Fun.id in
  let small = ref [] and large = ref [] in
  Array.iteri (fun i s -> if s < 1. then small := i :: !small else large := i :: !large) scaled;
  let rec pair () =
    match (!small, !large) with
    | s :: srest, l :: lrest ->
        prob.(s) <- scaled.(s);
        alias.(s) <- l;
        small := srest;
        (* donor [l] gave away [1 - scaled.(s)] of its mass *)
        scaled.(l) <- scaled.(l) -. (1. -. scaled.(s));
        if scaled.(l) < 1. then begin
          large := lrest;
          small := l :: !small
        end;
        pair ()
    | rest, [] | [], rest ->
        (* leftover ranks are exactly full up to rounding: keep prob = 1 *)
        List.iter (fun i -> prob.(i) <- 1.) rest
  in
  pair ();
  { n; prob; alias }

let sample t rng =
  let i = Lw_util.Det_rng.int rng t.n in
  if Lw_util.Det_rng.float rng 1.0 < t.prob.(i) then i else t.alias.(i)
