(** Telemetry-driven DVFS governor (paper §III-B).

    An activity plug-in closing the observe-decide-act loop: it samples
    its own {!Power}/{!Thermal} models and the ICN merge backlog into an
    {!Obs.Timeseries} window, and throttles/restores the cluster and ICN
    clock domains via {!Machine.set_period} with hysteresis:

    - hotspot temperature >= [temp_hi]: throttle clusters + ICN
      ("thermal-high");
    - windowed mean ICN backlog >= [icn_hi]: throttle clusters only
      ("icn-congestion");
    - temperature <= [temp_lo] and backlog <= [icn_lo]: restore the base
      periods ("recover").

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
  d_asleep : bool;
      (** the domain's clock was gated off when the decision was taken;
          the skipped-tick estimate for the slept span is accrued at the
          pre-decision period (no double-counting, see
          {!Desim.Clock.set_period}) *)
}

(** [attach ~interval m] registers the governor as an activity plug-in
    sampling every [interval] cluster cycles.  It creates its own
    {!Power} and {!Thermal} instances (so an independently attached
    [--power-interval] reporter is unaffected); [grid_w] defaults to
    [sqrt num_clusters].  [temp_lo] defaults to [temp_hi - 2];
    [icn_lo] to [icn_hi / 2].  [throttle_period] (default 2) is the
    period throttled domains are slowed to.  Pass [series] to share a
    timeseries sink with other producers; otherwise one is created with
    [window] points per channel (default 64).  Pass [tracer] to see the
    decisions in a span trace. *)
val attach :
  ?power_params:Power.params ->
  ?thermal_params:Thermal.params ->
  ?grid_w:int ->
  ?window:int ->
  ?temp_hi:float ->
  ?temp_lo:float ->
  ?icn_hi:float ->
  ?icn_lo:float ->
  ?throttle_period:int ->
  ?series:Obs.Timeseries.t ->
  ?tracer:Obs.Tracer.t ->
  interval:int ->
  Machine.t ->
  t

val decisions : t -> decision list  (** oldest first *)

val samples : t -> int
val timeseries : t -> Obs.Timeseries.t
val thermal : t -> Thermal.t
val power : t -> Power.t

(** The governor state as JSON — thresholds, sample count and the
    decision log (oldest first); [--stats-json] merges it under the
    top-level "governor" key. *)
val to_json : t -> Obs.Json.t

(** Export into a metrics registry:
    [sim.governor.set_period_total{domain,reason}] counters, the sample
    count, final clock periods and last temperature/backlog readings. *)
val export : t -> Obs.Metrics.t -> unit
