(** The [xmt.serve.v1] wire protocol.

    A connection is one Unix-domain socket carrying NDJSON both ways.

    {b Client → server} lines are bare request frames, one JSON object
    per line with a ["type"] discriminator:

    {v
    {"type":"campaign.submit","cid":"sweep1","spec":{...xmt.campaign.v1...}}
    {"type":"campaign.attach","cid":"sweep1","after":{"job":3,"jseq":1}}
    {"type":"ping"}
    {"type":"bye"}
    v}

    ["cid"] on submit is optional (the server assigns one); ["after"] on
    attach is the last [(job, jseq)] record the client received — the
    server re-streams strictly after it, or everything when absent.

    {b Server → client} traffic is a single [xmt.events.v1] stream
    ({!Obs.Stream}): the usual [stream.open] framing, then
    [server.hello], per-request [campaign.accepted] / [server.overload]
    / [server.error] / [campaign.attached] / [pong] responses, and the
    campaign records themselves ([job.start], [job.done],
    [campaign.progress], [campaign.done]) tagged with a trailing
    ["cid"] field so one connection can multiplex campaigns.  Clients
    strip ["cid"] before canonicalizing, which makes the served stream
    byte-identical to a direct {!Campaign.run} of the same request. *)

val schema : string
(** ["xmt.serve.v1"] *)

val version : int

(** Longest request line the server reads (4 MiB, far above any real
    campaign spec); a client that exceeds it gets a [server.error] frame
    and is disconnected. *)
val max_frame_bytes : int

(** A parsed client request frame. *)
type frame =
  | Submit of { cid : string option; spec : Obs.Json.t }
  | Attach of { cid : string; after : (int * int) option }
  | Ping
  | Bye

(** Campaign ids name journal files, so they are restricted to
    [[A-Za-z0-9_.-]], must not start with a dot, and are at most 64
    characters. *)
val valid_cid : string -> bool

(** Parse one request line; [Error] is a human-readable reason the
    server echoes back in a [server.error] frame. *)
val frame_of_line : string -> (frame, string) result
