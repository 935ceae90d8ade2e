(** Crash-durable campaign journals — see journal.mli. *)

module J = Obs.Json

type t = { mutable oc : out_channel option }

let path ~dir ~cid = Filename.concat dir (cid ^ ".journal")

let write_line t j =
  match t.oc with
  | None -> ()
  | Some oc ->
    output_string oc (J.to_string j);
    output_char oc '\n';
    flush oc

let start ~dir ~cid ~spec =
  let oc = open_out (path ~dir ~cid) in
  let t = { oc = Some oc } in
  write_line t
    (J.Obj
       [
         ("journal", J.Str "open");
         ("schema", J.Str Protocol.schema);
         ("cid", J.Str cid);
         ("spec", spec);
       ]);
  t

let reopen ~dir ~cid =
  let oc =
    open_out_gen [ Open_append; Open_wronly ] 0o644 (path ~dir ~cid)
  in
  { oc = Some oc }

let append t record = write_line t record

let close_mark t ~ok ~failed =
  write_line t
    (J.Obj
       [ ("journal", J.Str "close"); ("ok", J.Int ok); ("failed", J.Int failed) ])

let close t =
  match t.oc with
  | None -> ()
  | Some oc ->
    t.oc <- None;
    close_out oc

type recovered = {
  rc_cid : string;
  rc_spec : J.t;
  rc_records : J.t list;
  rc_ok : int;
  rc_failed : int;
  rc_complete : bool;
}

(* Parse one journal: [Error reason] when it cannot be resumed. *)
let recover_file ~dir name =
  let cid = Filename.chop_suffix name ".journal" in
  let lines =
    In_channel.with_open_text (Filename.concat dir name) In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  (* only the final line may be truncated by a crash, so a parse
     failure on any earlier line is a corrupt journal *)
  let n = List.length lines in
  let rec parse i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match J.of_string line with
      | j -> parse (i + 1) (j :: acc) rest
      | exception J.Parse_error _ when i = n -> Ok (List.rev acc)
      | exception J.Parse_error e -> Error (Printf.sprintf "line %d is corrupt (%s)" i e))
  in
  match parse 1 [] lines with
  | Error _ as e -> e
  | Ok [] -> Error "empty journal"
  | Ok (first :: rest) -> (
    match (J.member "journal" first, J.member "spec" first) with
    | Some (J.Str "open"), Some spec ->
      let records, ok, failed, complete =
        List.fold_left
          (fun (rs, ok, failed, complete) j ->
            match J.member "journal" j with
            | Some (J.Str "close") ->
              let geti k d =
                Option.value ~default:d (Option.bind (J.member k j) J.to_int)
              in
              (rs, geti "ok" ok, geti "failed" failed, true)
            | Some _ -> (rs, ok, failed, complete)
            | None -> (j :: rs, ok, failed, complete))
          ([], 0, 0, false) rest
      in
      Ok
        {
          rc_cid = cid;
          rc_spec = spec;
          rc_records = List.rev records;
          rc_ok = ok;
          rc_failed = failed;
          rc_complete = complete;
        }
    | _ -> Error "first line is not a journal open record")

let recover ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ([], [])
  | names ->
    Array.to_list names
    |> List.filter (fun n -> Filename.check_suffix n ".journal")
    |> List.sort compare
    |> List.partition_map (fun n ->
           match recover_file ~dir n with
           | Ok r -> Left r
           | Error why -> Right (n, why)
           | exception Sys_error e -> Right (n, e))
