type trace = int list

(* ---------------- traffic models ---------------- *)

(* Per-site parameters derived deterministically from the site id: object
   count (Poisson-ish) and a log-normal size scale. Sites therefore have
   stable, distinguishable signatures — which is the whole problem. *)
let site_params ~sites ~site =
  if site < 0 || site >= sites then invalid_arg "Fingerprint: site out of range";
  let r = Lw_util.Det_rng.of_string_seed (Printf.sprintf "site-params/%d" site) in
  let mean_objects = 5 + Lw_util.Det_rng.int r 60 in
  let size_scale = 400. *. exp (Lw_util.Det_rng.float r 3.5) in
  (mean_objects, size_scale)

let gaussian rng =
  let u1 = max 1e-12 (Lw_util.Det_rng.float rng 1.0) in
  let u2 = Lw_util.Det_rng.float rng 1.0 in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let traditional_trace ~sites ~site rng =
  let mean_objects, size_scale = site_params ~sites ~site in
  (* per-visit noise around the site signature *)
  let n_objects =
    max 1 (mean_objects + int_of_float (float_of_int mean_objects *. 0.15 *. gaussian rng))
  in
  List.init n_objects (fun _ ->
      let s = size_scale *. exp (0.8 *. gaussian rng) in
      max 64 (int_of_float s))

(* one data exchange and the code exchange, as an observer sizes them *)
let data_exchange_bytes = 13927
let code_exchange_bytes = 2 * 1024 * 1024

let lightweb_trace ?(fetches_per_page = 5) ~code_fetch _rng =
  (if code_fetch then [ code_exchange_bytes ] else [])
  @ List.init fetches_per_page (fun _ -> data_exchange_bytes)

(* ---------------- multinomial naive Bayes ---------------- *)

type model = {
  bucket : float;
  classes : int;
  (* log P(bucket | class), Laplace-smoothed, plus log priors *)
  log_prior : float array;
  log_likelihood : (int, float) Hashtbl.t array;
  default_ll : float array; (* smoothed mass for unseen buckets *)
}

let bucket_of ~bucket size = int_of_float (Float.log (float_of_int (max 1 size)) /. Float.log bucket)

let train ?(bucket = 1.3) ~classes examples =
  if classes < 1 then invalid_arg "Fingerprint.train: classes < 1";
  let counts = Array.init classes (fun _ -> Hashtbl.create 32) in
  let totals = Array.make classes 0 in
  let class_examples = Array.make classes 0 in
  List.iter
    (fun (cls, trace) ->
      if cls < 0 || cls >= classes then invalid_arg "Fingerprint.train: class out of range";
      class_examples.(cls) <- class_examples.(cls) + 1;
      List.iter
        (fun size ->
          let b = bucket_of ~bucket size in
          let c = try Hashtbl.find counts.(cls) b with Not_found -> 0 in
          Hashtbl.replace counts.(cls) b (c + 1);
          totals.(cls) <- totals.(cls) + 1)
        trace)
    examples;
  let n_examples = List.length examples in
  let vocab = 64 in
  (* Laplace smoothing over a nominal vocabulary of size buckets *)
  let log_likelihood =
    Array.init classes (fun cls ->
        let tbl = Hashtbl.create 32 in
        Hashtbl.iter
          (fun b c ->
            Hashtbl.replace tbl b
              (log (float_of_int (c + 1) /. float_of_int (totals.(cls) + vocab))))
          counts.(cls);
        tbl)
  in
  let default_ll =
    Array.init classes (fun cls -> log (1. /. float_of_int (totals.(cls) + vocab)))
  in
  let log_prior =
    Array.init classes (fun cls ->
        log (float_of_int (class_examples.(cls) + 1) /. float_of_int (n_examples + classes)))
  in
  { bucket; classes; log_prior; log_likelihood; default_ll }

let classify m trace =
  let best = ref 0 and best_score = ref neg_infinity in
  for cls = 0 to m.classes - 1 do
    let score = ref m.log_prior.(cls) in
    List.iter
      (fun size ->
        let b = bucket_of ~bucket:m.bucket size in
        let ll =
          match Hashtbl.find_opt m.log_likelihood.(cls) b with
          | Some v -> v
          | None -> m.default_ll.(cls)
        in
        score := !score +. ll)
      trace;
    if !score > !best_score then begin
      best_score := !score;
      best := cls
    end
  done;
  !best

let accuracy m examples =
  match examples with
  | [] -> invalid_arg "Fingerprint.accuracy: no examples"
  | _ ->
      let correct =
        List.fold_left
          (fun acc (cls, trace) -> if classify m trace = cls then acc + 1 else acc)
          0 examples
      in
      float_of_int correct /. float_of_int (List.length examples)

let chance ~classes = 1. /. float_of_int classes
