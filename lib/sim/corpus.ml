type profile = { name : string; total_bytes : float; pages : float; avg_page_bytes : float }

let gib = 1073741824.

let c4 = { name = "C4"; total_bytes = 305. *. gib; pages = 360e6; avg_page_bytes = 0.9 *. 1024. }

let wikipedia =
  { name = "Wikipedia"; total_bytes = 21. *. gib; pages = 60e6; avg_page_bytes = 0.4 *. 1024. }

type page = { path : string; body : string }

type t = { profile : profile; sites : string array; pages : page array }

(* Box-Muller on the deterministic RNG *)
let gaussian rng =
  let u1 = max 1e-12 (Lw_util.Det_rng.float rng 1.0) in
  let u2 = Lw_util.Det_rng.float rng 1.0 in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let sample_page_size profile ~sigma rng =
  (* log-normal with arithmetic mean = avg_page_bytes: mu = ln(mean) - sigma^2/2 *)
  let mu = log profile.avg_page_bytes -. (sigma *. sigma /. 2.) in
  let size = exp (mu +. (sigma *. gaussian rng)) in
  let lo = 32. and hi = 16. *. profile.avg_page_bytes in
  int_of_float (Float.min hi (Float.max lo size))

let lorem =
  "the quick brown fox jumps over the lazy dog while the private web waits for nobody "

let body_of_size rng size =
  let buf = Buffer.create size in
  while Buffer.length buf < size do
    let start = Lw_util.Det_rng.int rng (String.length lorem - 1) in
    Buffer.add_string buf (String.sub lorem start (String.length lorem - start))
  done;
  String.sub (Buffer.contents buf) 0 size

let generate ?(sites = 50) ?(sigma = 0.7) profile ~n_pages rng =
  if sites < 1 || n_pages < 1 then invalid_arg "Corpus.generate: need sites, pages >= 1";
  let site_names = Array.init sites (fun i -> Printf.sprintf "site-%03d.example" i) in
  let site_zipf = Zipf.create ~n:sites () in
  let counters = Array.make sites 0 in
  let pages =
    Array.init n_pages (fun _ ->
        let s = Zipf.sample site_zipf rng in
        let idx = counters.(s) in
        counters.(s) <- idx + 1;
        let size = sample_page_size profile ~sigma rng in
        {
          path = Printf.sprintf "%s/articles/%05d.json" site_names.(s) idx;
          body = body_of_size rng size;
        })
  in
  { profile; sites = site_names; pages }

let to_sites t =
  let tbl = Hashtbl.create (Array.length t.sites) in
  Array.iter
    (fun page ->
      let domain =
        match String.index_opt page.path '/' with
        | Some i -> String.sub page.path 0 i
        | None -> page.path
      in
      let existing = try Hashtbl.find tbl domain with Not_found -> [] in
      Hashtbl.replace tbl domain (page :: existing))
    t.pages;
  Hashtbl.fold (fun d ps acc -> (d, List.rev ps) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
