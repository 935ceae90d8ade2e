(** Crash-durable campaign journals — the checkpoint/resume substrate of
    [xmtserved].

    One NDJSON file per campaign, [<dir>/<cid>.journal]:

    {v
    {"journal":"open","schema":"xmt.serve.v1","cid":"sweep1","spec":{...}}
    {"type":"job.start","job":0,"jseq":0,...}
    {"type":"job.done","job":0,"jseq":1,...}
    ...
    {"journal":"close","ok":17,"failed":1}
    v}

    The server appends each per-job record {e before} sending it to the
    subscribed client (journal-then-send, under one lock), so the
    journal is always a prefix-superset of what any client has seen and
    journal order is send order.  Each record line is flushed, so a
    [kill -9] loses at most the line being written — {!recover}
    tolerates a truncated final line.

    On restart, a journal without a close mark is an incomplete
    campaign: the verbatim ["spec"] rebuilds the request, the job
    records say which [(job, jseq)] were already emitted (those are
    never re-emitted — a resumed job whose [job.start] survived but
    whose [job.done] did not re-runs and emits only the missing
    [job.done]), and the record list seeds the replay history that
    [campaign.attach] re-streams from. *)

type t

val path : dir:string -> cid:string -> string

(** Create the journal (truncating any stale file) and write the open
    line. *)
val start : dir:string -> cid:string -> spec:Obs.Json.t -> t

(** Reopen an existing journal in append mode (resumed campaigns). *)
val reopen : dir:string -> cid:string -> t

(** Append one record line and flush. *)
val append : t -> Obs.Json.t -> unit

(** Write the close mark (campaign finished, not merely server down). *)
val close_mark : t -> ok:int -> failed:int -> unit

(** Close the file handle.  Idempotent; later {!append}s are no-ops. *)
val close : t -> unit

type recovered = {
  rc_cid : string;
  rc_spec : Obs.Json.t;  (** the submit frame's spec, verbatim *)
  rc_records : Obs.Json.t list;  (** job records in journal order *)
  rc_ok : int;
  rc_failed : int;
  rc_complete : bool;  (** close mark present *)
}

(** Scan [dir] for [*.journal] files and parse each, tolerating a
    truncated final line.  Returns the recovered journals, sorted by cid
    for determinism, and the files that could not be resumed — a corrupt
    earlier line, no valid open line, a read error — each with its
    reason. *)
val recover : dir:string -> recovered list * (string * string) list
