type t = { domain : string; rest : string }

let valid_label l =
  let n = String.length l in
  n >= 1 && n <= 63
  && String.for_all (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-') l
  && l.[0] <> '-'
  && l.[n - 1] <> '-'

let valid_domain d =
  String.length d <= 253
  &&
  let labels = String.split_on_char '.' d in
  List.length labels >= 2 && List.for_all valid_label labels

let of_parts ~domain ~rest =
  if not (valid_domain domain) then Error (Printf.sprintf "invalid domain %S" domain)
  else if rest <> "" && rest.[0] <> '/' then Error "path rest must start with '/'"
  else if String.exists (fun c -> c = '\x00') rest then Error "NUL in path"
  else Ok { domain; rest }

let parse s =
  match String.index_opt s '/' with
  | None -> of_parts ~domain:s ~rest:""
  | Some i -> of_parts ~domain:(String.sub s 0 i) ~rest:(String.sub s i (String.length s - i))

let domain t = t.domain
let rest t = t.rest
let in_domain t d = String.equal t.domain d
