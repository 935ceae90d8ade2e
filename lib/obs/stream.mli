(** Live telemetry streaming: a push-based event bus emitting
    [xmt.events.v1] NDJSON records.

    All other observability in the toolchain is batch — a report
    materializes only after the run finishes.  A stream is the in-flight
    counterpart: producers ({!Xmtsim.Machine} heartbeats, campaign
    lifecycle/progress, CLI drivers) push small records as they happen
    and a sink writes them out one JSON object per line, so a long
    cycle-accurate run or a big campaign can be watched with [tail -f]
    or piped into a dashboard.

    Contract:

    - every record is a JSON object carrying at least ["type"] (string),
      ["seq"] (int, dense from 0 per stream) and ["t"] (number; simulated
      cycle for simulator events, host milliseconds since stream creation
      otherwise);
    - there is no queue: a record is in the sink when {!emit} returns,
      and a sink that blocks holds up its producer (so a sink must not
      wait on a consumer it does not trust);
    - the stream opens with a [stream.open] record (schema tag) and
      {!close} appends a [stream.close] record carrying the number of
      records before it;
    - all operations are serialized on an internal mutex, so multiple
      producers (campaign worker domains) may share one stream. *)

type t

(** Where NDJSON lines go.  [write] receives one complete line (no
    trailing newline); [close] releases the underlying resource.  Sinks
    flush per line so a follower sees records as they happen. *)
type sink = { write : string -> unit; close : unit -> unit }

(** ["-"] streams to stdout, ["fd:N"] to the already-open file
    descriptor N (via [/dev/fd/N]), anything else to the named file
    (truncated).  NDJSON sinks are inherently incremental, so unlike
    {!Json.write_file} there is no atomic-rename step. *)
val sink_of_path : string -> sink

(** Append lines (newline-terminated) to a buffer — for tests and
    in-process consumers. *)
val buffer_sink : Buffer.t -> sink

(** Discard everything; records still take a [seq] and count as
    emitted. *)
val null_sink : unit -> sink

(** [create sink] opens a stream and emits the [stream.open] record. *)
val create : sink -> t

(** [emit s ~typ fields] formats one record, gives it the next [seq] and
    writes it to the sink before returning.  [t] defaults to host
    milliseconds since {!create}; simulator producers pass the simulated
    time instead.  [fields] must not include the reserved keys ["type"],
    ["seq"], ["t"]. *)
val emit : t -> typ:string -> ?t:int -> (string * Json.t) list -> unit

val emitted : t -> int  (** records written so far *)

(** Emit the [stream.close] rollup record (the [emitted] total), and
    close the sink.  Idempotent; later {!emit}s are no-ops. *)
val close : t -> unit

(** {1 Windowed rollups}

    A rollup accumulates labeled samples and emits one [window.close]
    record — count, time span, per-key mean/min/max — every [window]
    observations, so a follower can read a bounded summary instead of
    every heartbeat. *)

type rollup

val rollup : ?window:int -> t -> string -> rollup

(** Fold one sample set into the window; emits [window.close] when the
    window fills. *)
val observe : rollup -> t:int -> (string * float) list -> unit

(** Flush a partially-filled trailing window (no record when empty). *)
val close_rollup : rollup -> unit

(** {1 Validation and canonicalization} *)

(** The keys every [xmt.events.v1] record must carry. *)
val required_keys : string list

(** Check one parsed record against the schema contract. *)
val validate : Json.t -> (unit, string) result

(** Parse and validate one NDJSON line. *)
val validate_line : string -> (Json.t, string) result

(** Check that one whole stream lost nothing.  When the first record
    is [stream.open] and the last [stream.close], [seq] must run 0, 1,
    2, ... and the close's ["emitted"] must equal the number of records
    before it.  Any other list passes: a served client's file starts
    mid-stream, and a cut-off file has no close to check against. *)
val check_whole : Json.t list -> (unit, string) result

(** A per-job record's [(job, jseq)] key — the position a served
    campaign's client acknowledges and resumes after; [None] unless both
    are integers. *)
val job_key : Json.t -> (int * int) option

(** Reduce a stream to its deterministic core: keep only per-job
    lifecycle records (those carrying a ["job"] index), strip
    host-dependent keys ([seq], [t], wall-clock and throughput fields)
    and sort by (job, per-job sequence number).  A serial and a parallel
    run of the same campaign canonicalize to byte-identical streams —
    the property CI diffs. *)
val canonicalize : Json.t list -> Json.t list

(** {!canonicalize} over raw NDJSON text (one record per line; the
    result ends with a newline when non-empty).  Raises
    {!Json.Parse_error} on a malformed line. *)
val canonicalize_lines : string -> string
