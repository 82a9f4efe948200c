type visit = { time_s : float; site : int; page : int }

type params = {
  sites : int;
  pages_per_site : int;
  visits : int;
  mean_dwell_s : float;
  site_exponent : float;
  page_exponent : float;
}

let default_params =
  {
    sites = 20;
    pages_per_site = 200;
    visits = 250;
    mean_dwell_s = 90.;
    site_exponent = 1.0;
    page_exponent = 1.1;
  }

let generate p rng =
  if p.sites < 1 || p.pages_per_site < 1 || p.visits < 0 then
    invalid_arg "Workload.generate: bad params";
  let site_dist = Zipf.create ~exponent:p.site_exponent ~n:p.sites () in
  let page_dist = Zipf.create ~exponent:p.page_exponent ~n:p.pages_per_site () in
  let time = ref 0. in
  List.init p.visits (fun _ ->
      let dwell =
        -.p.mean_dwell_s *. log (max 1e-12 (Lw_util.Det_rng.float rng 1.0))
      in
      time := !time +. dwell;
      { time_s = !time; site = Zipf.sample site_dist rng; page = Zipf.sample page_dist rng })

type burst = { burst_time_s : float; burst_site : int; burst_pages : int list }

let search_bursts ~burst_k p rng =
  if burst_k < 1 then invalid_arg "Workload.search_bursts: burst_k must be >= 1";
  let visits = generate p rng in
  (* One burst per visit: the visited site is the "query", and the k
     member fetches are fresh draws from the same site's page Zipf —
     correlated (one hot site) and possibly duplicated (two draws may
     hit the same page), which is exactly the non-independent index mix
     a cluster retrieval puts into a single batch. *)
  let page_dist = Zipf.create ~exponent:p.page_exponent ~n:p.pages_per_site () in
  List.map
    (fun v ->
      {
        burst_time_s = v.time_s;
        burst_site = v.site;
        burst_pages = v.page :: List.init (burst_k - 1) (fun _ -> Zipf.sample page_dist rng);
      })
    visits

let gets_per_day (u : Cost_model.user_profile) =
  u.Cost_model.pages_per_day *. float_of_int u.Cost_model.gets_per_page

let gets_per_month u = 30. *. gets_per_day u

let code_fetches visits =
  let seen = Hashtbl.create 16 in
  List.fold_left
    (fun acc v ->
      if Hashtbl.mem seen v.site then acc
      else begin
        Hashtbl.replace seen v.site ();
        acc + 1
      end)
    0 visits
