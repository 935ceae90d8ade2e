(** [xmt.serve.v1] request-frame parsing — see protocol.mli. *)

module J = Obs.Json

let schema = "xmt.serve.v1"
let version = 1
let max_frame_bytes = 4 * 1024 * 1024

type frame =
  | Submit of { cid : string option; spec : J.t }
  | Attach of { cid : string; after : (int * int) option }
  | Ping
  | Bye

let valid_cid s =
  let n = String.length s in
  n > 0 && n <= 64
  && s.[0] <> '.'
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let frame_of_json j =
  let str_member k =
    match J.member k j with
    | Some (J.Str s) -> Ok (Some s)
    | None -> Ok None
    | Some _ -> Error (Printf.sprintf "%S must be a string" k)
  in
  let checked_cid = function
    | Some cid when not (valid_cid cid) ->
      Error (Printf.sprintf "invalid cid %S" cid)
    | v -> Ok v
  in
  match J.member "type" j with
  | Some (J.Str "campaign.submit") -> (
    match Result.bind (str_member "cid") checked_cid with
    | Error _ as e -> e
    | Ok cid -> (
      match J.member "spec" j with
      | Some (J.Obj _ as spec) -> Ok (Submit { cid; spec })
      | Some _ -> Error "\"spec\" must be an object"
      | None -> Error "campaign.submit needs a \"spec\""))
  | Some (J.Str "campaign.attach") -> (
    match Result.bind (str_member "cid") checked_cid with
    | Error _ as e -> e
    | Ok None -> Error "campaign.attach needs a \"cid\""
    | Ok (Some cid) -> (
      match J.member "after" j with
      | None -> Ok (Attach { cid; after = None })
      | Some a -> (
        match Obs.Stream.job_key a with
        | Some _ as after -> Ok (Attach { cid; after })
        | None -> Error "\"after\" must be {\"job\": N, \"jseq\": N}")))
  | Some (J.Str "ping") -> Ok Ping
  | Some (J.Str "bye") -> Ok Bye
  | Some (J.Str other) -> Error (Printf.sprintf "unknown frame type %S" other)
  | Some _ -> Error "\"type\" must be a string"
  | None -> Error "frame needs a \"type\""

let frame_of_line line =
  match J.of_string line with
  | j -> frame_of_json j
  | exception J.Parse_error msg -> Error (Printf.sprintf "bad JSON: %s" msg)
