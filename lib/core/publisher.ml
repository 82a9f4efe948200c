type site = { domain : string; code : string; pages : (string * Lw_json.Json.t) list }

type push_report = {
  code_pushed : bool;
  data_pushed : int;
  renamed : (string * string) list;
  code_epoch : int;
  data_epoch : int;
  keyword_epoch : int;
}

let page_path site suffix = site.domain ^ suffix

let validate site =
  if not (Lw_path.valid_domain site.domain) then
    Error (Printf.sprintf "invalid domain %S" site.domain)
  else begin
    match Lightscript.parse site.code with
    | Error e -> Error (Format.asprintf "code: %a" Lightscript.pp_error e)
    | Ok program ->
        if not (Lightscript.has_function program "plan") then Error "code must define fn plan"
        else if not (Lightscript.has_function program "render") then
          Error "code must define fn render"
        else begin
          let seen = Hashtbl.create 16 in
          let rec check = function
            | [] -> Ok ()
            | (suffix, _) :: rest ->
                if suffix = "" || suffix.[0] <> '/' then
                  Error (Printf.sprintf "page suffix %S must start with '/'" suffix)
                else if Hashtbl.mem seen suffix then
                  Error (Printf.sprintf "duplicate page suffix %S" suffix)
                else begin
                  Hashtbl.replace seen suffix ();
                  check rest
                end
          in
          check site.pages
        end
  end

let push universe ~publisher site =
  match validate site with
  | Error _ as e -> e
  | Ok () -> (
      match Universe.claim_domain universe ~publisher ~domain:site.domain with
      | Error _ as e -> e
      | Ok () -> (
          match Universe.push_code universe ~publisher ~domain:site.domain ~source:site.code with
          | Error _ as e -> e
          | Ok () ->
              let renamed = ref [] in
              (* Universe.push_data formats index collisions with a "path "
                 prefix; everything else is not retryable *)
              let is_collision_error e = String.length e >= 5 && String.sub e 0 5 = "path " in
              let rec push_page path value attempt =
                match Universe.push_data universe ~publisher ~path ~value with
                | Ok () -> Ok path
                | Error e when attempt < 8 && is_collision_error e ->
                    push_page (Printf.sprintf "%s~%d" path (attempt + 1)) value (attempt + 1)
                | Error e -> Error e
              in
              let rec push_all count = function
                | [] ->
                    (* one site push = one mutation batch = one new epoch
                       per store the push touched *)
                    let code_epoch, data_epoch = Universe.publish_updates universe in
                    Ok
                      {
                        code_pushed = true;
                        data_pushed = count;
                        renamed = List.rev !renamed;
                        code_epoch;
                        data_epoch;
                        keyword_epoch = Universe.keyword_epoch universe;
                      }
                | (suffix, value) :: rest -> (
                    let path = page_path site suffix in
                    match push_page path value 0 with
                    | Ok final_path ->
                        if not (String.equal final_path path) then
                          renamed := (path, final_path) :: !renamed;
                        push_all (count + 1) rest
                    | Error e -> Error (Printf.sprintf "page %s: %s" path e))
              in
              push_all 0 site.pages))
