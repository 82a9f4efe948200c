type size_class = Small | Medium | Large

let class_name = function Small -> "small" | Medium -> "medium" | Large -> "large"

let default_class_geometry cls =
  let open Universe in
  match cls with
  | Small ->
      { default_geometry with data_blob_size = 512; code_blob_size = 8 * 1024 }
  | Medium -> default_geometry
  | Large ->
      { default_geometry with data_blob_size = 4096; code_blob_size = 32 * 1024 }

type registry = { owners : (string, string) Hashtbl.t }

let registry () = { owners = Hashtbl.create 64 }

let register r ~publisher ~domain =
  if not (Lw_path.valid_domain domain) then Error (Printf.sprintf "invalid domain %S" domain)
  else begin
    match Hashtbl.find_opt r.owners domain with
    | Some owner when not (String.equal owner publisher) ->
        Error (Printf.sprintf "domain %s is registered to %s" domain owner)
    | Some _ -> Ok ()
    | None ->
        Hashtbl.replace r.owners domain publisher;
        Ok ()
  end

type cdn = {
  name : string;
  registry : registry;
  universes : (size_class * Universe.t) list;
  mutable peer_list : cdn list;
}

let create_cdn ?(seed = "lightweb") ?classes ~name registry =
  let classes =
    match classes with
    | Some cs -> cs
    | None -> List.map (fun c -> (c, default_class_geometry c)) [ Small; Medium; Large ]
  in
  let universes =
    List.map
      (fun (cls, geometry) ->
        (cls, Universe.create ~seed ~name:(Printf.sprintf "%s/%s" name (class_name cls)) geometry))
      classes
  in
  { name; registry; universes; peer_list = [] }

let cdn_name c = c.name
let universes c = c.universes
let universe c cls = List.assoc_opt cls c.universes
let peers c = List.map (fun p -> p.name) c.peer_list

let peer a b =
  if a != b then begin
    if not (List.memq b a.peer_list) then a.peer_list <- b :: a.peer_list;
    if not (List.memq a b.peer_list) then b.peer_list <- a :: b.peer_list
  end

let push_to_cdn cdn ~publisher cls site =
  match universe cdn cls with
  | None -> Ok 0 (* this CDN does not carry the class *)
  | Some u -> (
      match Publisher.push u ~publisher site with
      | Ok _ -> Ok 1
      | Error e -> Error (Printf.sprintf "%s: %s" cdn.name e))

let publish cdn ~publisher cls site =
  (* global ownership first: every universe must agree on the owner *)
  match register cdn.registry ~publisher ~domain:site.Publisher.domain with
  | Error _ as e -> e
  | Ok () ->
      let targets = cdn :: cdn.peer_list in
      List.fold_left
        (fun acc target ->
          match acc with
          | Error _ as e -> e
          | Ok n -> (
              match push_to_cdn target ~publisher cls site with
              | Ok m -> Ok (n + m)
              | Error _ as e -> e))
        (Ok 0) targets
