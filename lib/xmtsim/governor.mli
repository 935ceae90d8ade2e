(** Telemetry-driven DVFS governor (paper §III-B).

    A {!Sampler} hook closing the observe-decide-act loop: it reads its
    own {!Power}/{!Thermal} models and a 64-sample window of the ICN
    merge backlog, and throttles/restores the cluster and ICN clock
    domains via {!Machine.set_period} with hysteresis:

    - hotspot temperature >= [temp_hi]: throttle clusters + ICN to
      period 2 ("thermal-high");
    - windowed mean ICN backlog >= [icn_hi]: throttle clusters only
      ("icn-congestion");
    - temperature <= [temp_hi - 2] and backlog <= [icn_hi / 2]: restore
      the base periods ("recover").

    Every period change is logged as a {!decision}, emitted as a
    "governor" instant event on the span tracer it was handed (on the
    {!Trace.tid_governor} track), and exported as metrics. *)

type t

type decision = {
  d_cycle : int;  (** simulated time of the decision *)
  d_domain : string;  (** "clusters" | "icn" *)
  d_from : int;  (** period before *)
  d_to : int;  (** period after *)
  d_reason : string;  (** "thermal-high" | "icn-congestion" | "recover" *)
  d_temp_k : float;  (** hotspot temperature at decision time *)
  d_icn_backlog : float;  (** windowed mean backlog per module, cycles *)
}

(** [attach ~interval m] registers the governor as a {!Sampler} named
    ["governor"] sampling every [interval] cluster cycles.  Its power and
    thermal models are its own, so an independently attached
    [--power-interval] sampler is unaffected.  With [stream], the
    sampler's [sim.governor] rollup also carries the ICN backlog
    ([icn_backlog]).  Pass [tracer] to see the decisions in a span
    trace. *)
val attach :
  ?power_params:Power.params ->
  ?thermal_params:Thermal.params ->
  ?temp_hi:float ->
  ?icn_hi:float ->
  ?stream:Obs.Stream.t ->
  ?tracer:Obs.Tracer.t ->
  interval:int ->
  Machine.t ->
  t

val decisions : t -> decision list  (** oldest first *)

val samples : t -> int

(** The governor's power/thermal sampler. *)
val sampler : t -> Sampler.t

(** The governor state as JSON — thresholds, sample count and the
    decision log (oldest first); [--export stats] merges it under the
    top-level "governor" key. *)
val to_json : t -> Obs.Json.t

(** Export into a metrics registry:
    [sim.governor.set_period_total{domain,reason}] counters, the sample
    count, final clock periods and last temperature/backlog readings. *)
val export : t -> Obs.Metrics.t -> unit
