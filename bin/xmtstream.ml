(** xmtstream — validate and canonicalize xmt.events.v1 NDJSON streams.

    [xmtstream check FILE...] parses every line of every file and checks
    the schema contract (a JSON object with "type", "seq" and "t"), and
    that a file holding one whole stream lost nothing
    ({!Obs.Stream.check_whole}); exits 1 on the first violation.
    [xmtstream canon IN [OUT]] reduces a stream to its deterministic
    per-job core ({!Obs.Stream.canonicalize}) so CI can [cmp] a serial
    and a parallel campaign stream. *)

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

let usage () =
  prerr_endline
    "usage: xmtstream check FILE...\n\
    \       xmtstream canon IN [OUT]\n\
     check: every NDJSON line parses and carries the xmt.events.v1 keys,\n\
    \       and a whole stream (stream.open .. stream.close) lost nothing\n\
     canon: strip host-dependent fields, keep per-job records, sort \
     deterministically";
  exit 2

let check files =
  if files = [] then usage ();
  let records = ref 0 in
  List.iter
    (fun path ->
      let lineno = ref 0 in
      let file =
        String.split_on_char '\n' (read_file path)
        |> List.filter_map (fun line ->
               incr lineno;
               if String.trim line = "" then None
               else
                 match Obs.Stream.validate_line line with
                 | Ok j -> Some j
                 | Error msg ->
                   Printf.eprintf "xmtstream: %s:%d: %s\n" path !lineno msg;
                   exit 1)
      in
      (match Obs.Stream.check_whole file with
      | Ok () -> ()
      | Error msg ->
        Printf.eprintf "xmtstream: %s: %s\n" path msg;
        exit 1);
      records := !records + List.length file)
    files;
  Printf.printf "ok: %d record(s) across %d file(s)\n" !records
    (List.length files)

let canon input output =
  let text = read_file input in
  let canonical =
    try Obs.Stream.canonicalize_lines text
    with Obs.Json.Parse_error msg ->
      Printf.eprintf "xmtstream: %s: %s\n" input msg;
      exit 1
  in
  match output with
  | None -> print_string canonical
  | Some path ->
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
        output_string oc canonical)

let () =
  match Array.to_list Sys.argv with
  | _ :: "check" :: files -> check files
  | [ _; "canon"; input ] -> canon input None
  | [ _; "canon"; input; output ] -> canon input (Some output)
  | _ -> usage ()
