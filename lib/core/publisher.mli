(** The publisher toolchain (§3.1): a site is one code blob plus many data
    blobs; [push] validates it and uploads everything to a universe. *)

type site = {
  domain : string;
  code : string; (** Lightscript source for the domain's code blob *)
  pages : (string * Lw_json.Json.t) list;
      (** path suffixes (each starting with ['/']) to data values *)
}

type push_report = {
  code_pushed : bool;
  data_pushed : int;
  renamed : (string * string) list;
  code_epoch : int;
  data_epoch : int;
  keyword_epoch : int;
}
(** [renamed] records pages that hit an index collision and were stored
    under an alternative name ([old_path, new_path]) — the paper's
    "publisher can simply select another key name" recovery.
    [code_epoch]/[data_epoch]/[keyword_epoch] are the storage epochs this
    push sealed: a push is one atomic mutation batch, and these are the
    epochs at which its content became visible to PIR servers (pages land
    in the keyword index under their final, post-rename path). *)

val push :
  Universe.t ->
  publisher:string ->
  site ->
  (push_report, string) result
(** Claims the domain, pushes code, pushes every page. A path that
    collides in the index is retried as [path ^ "~N"], up to 8 times. *)
