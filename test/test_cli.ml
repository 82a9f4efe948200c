(* The `lightweb` command line as a process: `serve` ends cleanly on
   SIGINT (listeners shut, `--metrics` dumped, exit 0), and an
   out-of-range `--shard-bits` is refused with exit 1 before anything is
   bound. The binary sits beside this suite's under _build/default. *)

let cli =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/lightweb_cli.exe"

(* A one-site directory the loader accepts: the smallest code blob and
   one data page. *)
let with_site f =
  let root = Filename.temp_dir "lw_cli_site" "" in
  let dir = Filename.concat root "a.example" in
  let pages = Filename.concat dir "pages" in
  Sys.mkdir dir 0o755;
  Sys.mkdir pages 0o755;
  let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s) in
  write (Filename.concat dir "code.ls") "fn plan(p,s){return [];} fn render(p,s,d){return \"\";}";
  write (Filename.concat pages "x.json") "{\"t\":1}";
  Fun.protect
    ~finally:(fun () ->
      Sys.remove (Filename.concat pages "x.json");
      Sys.rmdir pages;
      Sys.remove (Filename.concat dir "code.ls");
      Sys.rmdir dir;
      Sys.rmdir root)
    (fun () -> f root)

(* A base port whose three successors are free too, as `serve` binds
   four; another process may still take one before the child binds it,
   so the caller retries on a failed bind. *)
let rec free_base_port tries =
  let bind p =
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, p)) with
    | () -> Some s
    | exception Unix.Unix_error _ ->
        Unix.close s;
        None
  in
  let first = Option.get (bind 0) in
  let base =
    match Unix.getsockname first with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> 0
  in
  let rest =
    if base + 3 > 65535 then [] else List.filter_map bind [ base + 1; base + 2; base + 3 ]
  in
  List.iter Unix.close (first :: rest);
  if List.length rest = 3 then base
  else if tries > 1 then free_base_port (tries - 1)
  else Alcotest.fail "no four consecutive free ports"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Runs [cli args] with stdout on a pipe and stderr in a file; [f] gets
   the pid and a line reader with a deadline. Returns the exit status
   and what stderr held. *)
let run_cli args f =
  let err_path = Filename.temp_file "lw_cli" ".err" in
  let err = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin out_w err
  in
  Unix.close out_w;
  Unix.close err;
  let buf = Buffer.create 256 and chunk = Bytes.create 256 in
  (* the next stdout line, or None at end of output or past [deadline] *)
  let rec next_line deadline =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear buf;
        Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
        Some (String.sub s 0 i)
    | None -> (
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then None
        else
          match Unix.select [ out_r ] [] [] left with
          | [], _, _ -> None
          | _ -> (
              match Unix.read out_r chunk 0 (Bytes.length chunk) with
              | 0 -> None
              | n ->
                  Buffer.add_subbytes buf chunk 0 n;
                  next_line deadline))
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.close out_r;
      Sys.remove err_path)
    (fun () ->
      (try f pid next_line
       with e ->
         (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
         ignore (Unix.waitpid [] pid);
         raise e);
      let _, status = Unix.waitpid [] pid in
      (status, read_file err_path))

(* Reads lines until one starts with "serving:"; false if the output
   ends or 20 s pass first. *)
let await_serving next_line =
  let deadline = Unix.gettimeofday () +. 20. in
  let rec go () =
    match next_line deadline with
    | None -> false
    | Some l -> String.starts_with ~prefix:"serving:" l || go ()
  in
  go ()

let test_serve_sigint () =
  with_site @@ fun site ->
  let rec attempt tries =
    let port = free_base_port 5 in
    let serving = ref false in
    let status, err =
      run_cli
        [ "serve"; "--sites"; site; "--port"; string_of_int port; "--metrics" ]
        (fun pid next_line ->
          serving := await_serving next_line;
          Unix.kill pid (if !serving then Sys.sigint else Sys.sigkill))
    in
    if !serving then (status, err)
    else if tries > 1 then attempt (tries - 1)
    else Alcotest.failf "serve never printed serving: (stderr: %s)" err
  in
  let status, err = attempt 3 in
  Alcotest.(check bool) "exit 0 on SIGINT" true (status = Unix.WEXITED 0);
  Alcotest.(check bool) "Prometheus dump on stderr" true (contains ~sub:"# TYPE " err)

let test_shard_bits_range () =
  with_site @@ fun site ->
  List.iter
    (fun bits ->
      let bound = ref false in
      let status, err =
        run_cli
          [
            "serve"; "--sites"; site; "--port"; string_of_int (free_base_port 5); "--shard-bits";
            string_of_int bits;
          ]
          (fun pid next_line ->
            bound := await_serving next_line;
            if !bound then Unix.kill pid Sys.sigkill)
      in
      let label = Printf.sprintf "--shard-bits %d" bits in
      Alcotest.(check bool) (label ^ ": nothing served") false !bound;
      Alcotest.(check bool) (label ^ ": exit 1") true (status = Unix.WEXITED 1);
      Alcotest.(check bool)
        (label ^ ": no uncaught exception")
        false
        (contains ~sub:"exception" err))
    [ 0; 12; 20 ]

let () =
  Alcotest.run "lw_cli"
    [
      ( "serve",
        [
          Alcotest.test_case "SIGINT dumps metrics and exits 0" `Quick test_serve_sigint;
          Alcotest.test_case "out-of-range --shard-bits exits 1" `Quick test_shard_bits_range;
        ] );
    ]
