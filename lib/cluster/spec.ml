module Json = Lw_json.Json

type sabotage = { die_after_register : bool; die_on_refresh : int option }

let no_sabotage = { die_after_register = false; die_on_refresh = None }

type t = {
  shard_id : int;
  ctl_host : string;
  ctl_port : int;
  domain_bits : int;
  bucket_size : int;
  state_dir : string;
  sabotage : sabotage;
}

let encode s =
  let num i = Json.Number (float_of_int i) in
  Json.to_string
    (Json.Obj
       [
         ("shard_id", num s.shard_id);
         ("ctl_host", Json.String s.ctl_host);
         ("ctl_port", num s.ctl_port);
         ("domain_bits", num s.domain_bits);
         ("bucket_size", num s.bucket_size);
         ("state_dir", Json.String s.state_dir);
         ("die_after_register", Json.Bool s.sabotage.die_after_register);
         ( "die_on_refresh",
           match s.sabotage.die_on_refresh with None -> Json.Null | Some n -> num n );
       ])

let decode raw =
  match Json.of_string raw with
  | exception Json.Parse_error e -> Error ("worker spec is not JSON: " ^ e)
  | j -> (
      let int k = Json.get_int (Json.member k j) in
      let str k = Json.get_string (Json.member k j) in
      match
        {
          shard_id = int "shard_id";
          ctl_host = str "ctl_host";
          ctl_port = int "ctl_port";
          domain_bits = int "domain_bits";
          bucket_size = int "bucket_size";
          state_dir = str "state_dir";
          sabotage =
            {
              die_after_register = Json.get_bool (Json.member "die_after_register" j);
              die_on_refresh =
                (match Json.member "die_on_refresh" j with
                | Json.Null -> None
                | v -> Some (Json.get_int v));
            };
        }
      with
      | s -> Ok s
      | exception (Failure e | Invalid_argument e) -> Error ("bad worker spec: " ^ e))
