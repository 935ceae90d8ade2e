(** Live telemetry streaming: a push-based, bounded-queue event bus
    emitting [xmt.events.v1] NDJSON records.

    All other observability in the toolchain is batch — a report
    materializes only after the run finishes.  A stream is the in-flight
    counterpart: producers ({!Xmtsim.Machine} heartbeats, campaign
    lifecycle/progress, CLI drivers) push small records as they happen
    and a sink writes them out one JSON object per line, so a long
    cycle-accurate run or a big campaign can be watched with [tail -f]
    or piped into a dashboard.

    Contract:

    - every record is a JSON object carrying at least ["type"] (string),
      ["seq"] (int, monotonic per stream) and ["t"] (number; simulated
      cycle for simulator events, host milliseconds since stream creation
      otherwise);
    - the queue between producers and the sink is bounded: when it is
      full (a paused or wedged consumer) new records are {e dropped and
      counted}, never blocking the producer — the simulator's schedule
      is sacred.  Dropped records still consume a sequence number, so
      gaps in [seq] reveal loss;
    - the stream opens with a [stream.open] record (schema tag) and
      {!close} appends a [stream.close] record with the final
      emitted/dropped totals;
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

(** Discard everything (still counts as delivered, not dropped). *)
val null_sink : unit -> sink

(** [create sink] opens a stream and emits the [stream.open] record.
    [capacity] bounds the pending-record queue (default 4096). *)
val create : ?capacity:int -> sink -> t

(** [emit s ~typ fields] pushes one record.  [t] defaults to host
    milliseconds since {!create}; simulator producers pass the simulated
    time instead.  [fields] must not include the reserved keys ["type"],
    ["seq"], ["t"].  Never blocks: with the queue full the record is
    dropped and counted. *)
val emit : t -> typ:string -> ?t:int -> (string * Json.t) list -> unit

(** Stop forwarding to the sink; records accumulate in the bounded
    queue (overflow drops).  Models a slow consumer — the campaign
    engine's single consumer drains explicitly. *)
val pause : t -> unit

val resume : t -> unit

(** Forward everything pending to the sink (no-op while paused). *)
val drain : t -> unit

val emitted : t -> int  (** records that reached the queue *)

val dropped : t -> int  (** records lost to overflow *)

val pending : t -> int  (** records queued but not yet written *)

(** Emit the [stream.close] rollup record (emitted/dropped totals),
    flush, and close the sink.  Idempotent; later {!emit}s are no-ops. *)
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
