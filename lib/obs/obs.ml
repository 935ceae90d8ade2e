(** Obs — the unified telemetry layer.

    Used across the whole toolchain:

    - {!Json}: dependency-free JSON values (emit + parse).
    - {!Metrics}: a typed registry of counters/gauges/histograms with
      labels.  The simulator's activity counters ({!Xmtsim.Stats}), the
      power/thermal models and host-side throughput all export into it;
      [xmtsim --export stats] and the bench harness's [BENCH_*.json]
      records are its serializations.
    - {!Tracer}: span-based tracing in Chrome trace-event JSON
      ([xmtsim --export trace]), covering simulated activity (spawn/join
      phases, per-TCU memory-wait spans, package hops) and host-side
      activity (wall-clock per run) on separate process tracks.
    - {!Bench_gate}: the regression comparator over the bench harness's
      [BENCH_*.json] records (driven by [bench/gate.exe] in CI).
    - {!Stream}: the live side of the layer — a push-based, bounded-queue
      event bus emitting [xmt.events.v1] NDJSON records (run/job
      lifecycle, simulator heartbeats, campaign progress/ETA, windowed
      rollups of heartbeats and power/thermal samples) so long runs and campaigns are observable while they
      execute ([xmtsim --stream]).
    - {!Schema}: the registry of versioned record schemas and of the
      [--export] kinds that produce them — the single table the CLI's
      export validation, the stream validator and the docs all read.
    - {!Clock}: the monotonic host clock every reported duration is
      measured on (host clock steps cannot make a [wall_seconds] field
      jump or go negative). *)

module Json = Json
module Schema = Schema
module Clock = Clock
module Metrics = Metrics
module Tracer = Tracer
module Bench_gate = Bench_gate
module Stream = Stream
