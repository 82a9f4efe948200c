(* The first retrieval-universe layer: cluster the synthetic corpus into
   embedding-like buckets with a deterministic feature hash of path
   tokens, so "retrieve the nearest cluster of a query" becomes k
   correlated keyword lookups against the universe's keyword store —
   the PIR-RAG shape (PAPERS.md) on top of the keyword verb.

   The feature hash plays the role of an embedding-plus-ANN index: two
   pages whose paths share every non-leaf token (same site, same
   section) land in the same cluster, so a cluster is a plausible
   "semantically nearby" set without shipping a real embedding model.
   Everything is deterministic in the path bytes — no RNG, no floats —
   which is what lets tests and the bench agree on cluster membership
   across processes. *)

module Corpus = Lw_sim.Corpus

type t = {
  clusters : int;
  assignment : (string, int) Hashtbl.t; (* path -> cluster *)
  members : string list array; (* cluster -> member paths, sorted *)
}

(* Feature tokens of a path: every '/'-segment except the last (the leaf
   is the per-page id — exactly the part that must NOT separate pages of
   one section), sub-split on '.' and '-'. A query that is not a path
   (no '/') keeps all its tokens. *)
let tokens_of s =
  let segs = String.split_on_char '/' s in
  let prefix =
    match List.rev segs with
    | _leaf :: (_ :: _ as rest) -> List.rev rest
    | _ -> segs
  in
  prefix
  |> List.concat_map (String.split_on_char '.')
  |> List.concat_map (String.split_on_char '-')
  |> List.filter (fun tok -> tok <> "")

(* FNV-style accumulation, masked to stay in positive OCaml int range. *)
let mask = 0x3FFFFFFFFFFF

let feature_hash tokens =
  List.fold_left
    (fun h tok ->
      let h = String.fold_left (fun h c -> (h lxor Char.code c) * 16777619 land mask) h tok in
      ((h * 31) + 7) land mask)
    0x811C9DC5 tokens

let cluster_of_tokens ~clusters tokens = feature_hash tokens mod clusters

let build ~clusters (corpus : Corpus.t) =
  if clusters < 1 then invalid_arg "Retrieval.build: clusters must be >= 1";
  let assignment = Hashtbl.create (Array.length corpus.Corpus.pages) in
  let buckets = Array.make clusters [] in
  Array.iter
    (fun (p : Corpus.page) ->
      let c = cluster_of_tokens ~clusters (tokens_of p.Corpus.path) in
      Hashtbl.replace assignment p.Corpus.path c;
      buckets.(c) <- p.Corpus.path :: buckets.(c))
    corpus.Corpus.pages;
  { clusters; assignment; members = Array.map (List.sort String.compare) buckets }

let cluster_of t query =
  match Hashtbl.find_opt t.assignment query with
  | Some c -> c (* exact member: its recorded cluster, renames included *)
  | None -> cluster_of_tokens ~clusters:t.clusters (tokens_of query)

let members t c =
  if c < 0 || c >= t.clusters then invalid_arg "Retrieval.members: cluster out of range";
  t.members.(c)

let non_empty t =
  Array.fold_left (fun n ms -> if ms = [] then n else n + 1) 0 t.members

let rec take k = function [] -> [] | x :: rest -> if k <= 0 then [] else x :: take (k - 1) rest

(* The retrieval primitive: the k nearest stored pages of [query] = the
   first k members of its cluster. The fetch itself is the caller's k
   correlated keyword GETs (Zltp_client.keyword_get_batch). *)
let retrieve t ~query ~k =
  if k < 1 then invalid_arg "Retrieval.retrieve: k must be >= 1";
  take k (members t (cluster_of t query))
