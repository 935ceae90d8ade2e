(** Telemetry-driven DVFS governor (paper §III-B: activity plug-ins can
    implement "DVFS-style runtime control").

    An activity plug-in that closes the observe-decide-act loop: every
    [interval] cluster cycles it samples its own {!Power} model, steps the
    {!Thermal} model, pushes the readings into an {!Obs.Timeseries}
    window, and compares the {e windowed} readings against thresholds:

    - hotspot temperature above [temp_hi] throttles both the cluster and
      ICN clock domains to [throttle_period] (chip-wide thermal cap);
    - windowed mean ICN merge backlog above [icn_hi] throttles only the
      cluster domain (slows injection into the congested network);
    - both signals back below their low-water marks restore the base
      periods (hysteresis keeps the governor from oscillating).

    Every {!Desim.Clock.set_period} call is recorded as a {!decision},
    pushed to the timeseries, emitted as an instant event on the span
    tracer it was handed (if any), and exported as metrics —
    the paper's "study the architecture while it runs" loop. *)

type decision = {
  d_cycle : int;  (** simulated time of the decision *)
  d_domain : string;  (** "clusters" | "icn" *)
  d_from : int;  (** period before *)
  d_to : int;  (** period after *)
  d_reason : string;  (** "thermal-high" | "icn-congestion" | "recover" *)
  d_temp_k : float;  (** hotspot temperature at decision time *)
  d_icn_backlog : float;  (** windowed mean backlog per module, cycles *)
  d_asleep : bool;  (** domain was clock-gated off at decision time *)
}

type t = {
  m : Machine.t;
  tracer : Obs.Tracer.t option;  (* decisions become instant events here *)
  power : Power.t;
  thermal : Thermal.t;
  interval : int;
  temp_hi : float;
  temp_lo : float;
  icn_hi : float;
  icn_lo : float;
  throttle_period : int;
  base_cluster_period : int;
  base_icn_period : int;
  series : Obs.Timeseries.t;
  ch_temp : Obs.Timeseries.channel;
  ch_icn : Obs.Timeseries.channel;
  ch_power : Obs.Timeseries.channel;
  ch_cluster_period : Obs.Timeseries.channel;
  ch_icn_period : Obs.Timeseries.channel;
  mutable decisions : decision list;  (** newest first *)
  mutable samples : int;
}

let timeseries g = g.series
let thermal g = g.thermal
let power g = g.power
let samples g = g.samples
let decisions g = List.rev g.decisions

(* mean ICN merge backlog per cache module, in cycles *)
let icn_backlog_per_module m =
  let backlog = Machine.icn_backlog m in
  let total =
    Array.fold_left
      (fun acc sides -> Array.fold_left ( + ) acc sides)
      0 backlog
  in
  float_of_int total /. float_of_int (max 1 (Array.length backlog))

let decide g ~cycle ~temp ~icn_w =
  let set domain name base ~reason period =
    let from = Machine.period g.m domain in
    if from <> period then begin
      (* Record whether the domain is clock-gated off before applying the
         change: a throttled-while-asleep domain accrues its skipped-tick
         estimate at the old period inside Clock.set_period, so the span
         already slept is not double-counted at the new rate. *)
      let asleep = Machine.domain_sleeping g.m domain in
      Machine.set_period g.m domain period;
      ignore base;
      let d =
        {
          d_cycle = cycle;
          d_domain = name;
          d_from = from;
          d_to = period;
          d_reason = reason;
          d_temp_k = temp;
          d_icn_backlog = icn_w;
          d_asleep = asleep;
        }
      in
      g.decisions <- d :: g.decisions;
      match g.tracer with
      | None -> ()
      | Some tr ->
        Obs.Tracer.instant tr ~ts:cycle ~tid:(Trace.tid_governor (Machine.config g.m))
          ~cat:"governor"
          ~args:
            [ ("domain", Obs.Tracer.A_str name);
              ("from", Obs.Tracer.A_int from);
              ("to", Obs.Tracer.A_int period);
              ("reason", Obs.Tracer.A_str reason);
              ("temp_k", Obs.Tracer.A_float temp);
              ("icn_backlog", Obs.Tracer.A_float icn_w);
              ("asleep", Obs.Tracer.A_int (if d.d_asleep then 1 else 0)) ]
          "set_period"
    end
  in
  if temp >= g.temp_hi then begin
    (* thermal emergency: chip-wide slowdown *)
    set Machine.Clusters "clusters" g.base_cluster_period ~reason:"thermal-high"
      (max g.throttle_period g.base_cluster_period);
    set Machine.Icn "icn" g.base_icn_period ~reason:"thermal-high"
      (max g.throttle_period g.base_icn_period)
  end
  else if icn_w >= g.icn_hi then
    (* congestion: slow injection, keep the network draining at speed *)
    set Machine.Clusters "clusters" g.base_cluster_period ~reason:"icn-congestion"
      (max g.throttle_period g.base_cluster_period)
  else if temp <= g.temp_lo && icn_w <= g.icn_lo then begin
    set Machine.Clusters "clusters" g.base_cluster_period ~reason:"recover"
      g.base_cluster_period;
    set Machine.Icn "icn" g.base_icn_period ~reason:"recover" g.base_icn_period
  end

let attach ?power_params ?thermal_params ?grid_w ?(window = 64)
    ?(temp_hi = 326.0) ?temp_lo ?(icn_hi = 6.0) ?icn_lo
    ?(throttle_period = 2) ?series ?tracer ~interval m =
  if interval <= 0 then invalid_arg "Governor.attach: interval must be positive";
  let temp_lo = match temp_lo with Some v -> v | None -> temp_hi -. 2.0 in
  let icn_lo = match icn_lo with Some v -> v | None -> icn_hi /. 2.0 in
  let cfg = Machine.config m in
  let power = Power.create ?params:power_params m in
  let grid_w =
    match grid_w with
    | Some w -> w
    | None ->
      max 1 (int_of_float (sqrt (float_of_int cfg.Config.num_clusters)))
  in
  let thermal =
    Thermal.create ?params:thermal_params ~grid_w (Power.component_names power)
  in
  let series =
    match series with Some s -> s | None -> Obs.Timeseries.create ~window ()
  in
  let ch name help = Obs.Timeseries.channel series ~help name in
  let g =
    {
      m;
      tracer;
      power;
      thermal;
      interval;
      temp_hi;
      temp_lo;
      icn_hi;
      icn_lo;
      throttle_period;
      base_cluster_period = Machine.period m Machine.Clusters;
      base_icn_period = Machine.period m Machine.Icn;
      series;
      ch_temp = ch "sim.governor.temp_k" "hotspot temperature seen by the governor";
      ch_icn =
        ch "sim.governor.icn_backlog"
          "windowed mean ICN merge backlog per module (cycles)";
      ch_power = ch "sim.governor.power_watts" "sampled chip power";
      ch_cluster_period = ch "sim.governor.cluster_period" "cluster clock period";
      ch_icn_period = ch "sim.governor.icn_period" "ICN clock period";
      decisions = [];
      samples = 0;
    }
  in
  Machine.add_activity_plugin m ~name:"governor" ~interval (fun m cycle ->
      let now = Machine.cycles m in
      let watts = Power.sample g.power in
      Thermal.step g.thermal ~dt:(float_of_int g.interval *. 1e-9) watts;
      let temp = Thermal.max_temperature g.thermal in
      let icn_now = icn_backlog_per_module m in
      g.samples <- g.samples + 1;
      Obs.Timeseries.push g.ch_temp ~t:now temp;
      Obs.Timeseries.push g.ch_icn ~t:now icn_now;
      Obs.Timeseries.push g.ch_power ~t:now (Power.total g.power);
      (* decisions react to the windowed mean, not the instantaneous
         spike — the "windowed ICN occupancy" of the in-flight layer *)
      let icn_w = Obs.Timeseries.mean g.ch_icn in
      decide g ~cycle:now ~temp ~icn_w;
      Obs.Timeseries.push g.ch_cluster_period ~t:now
        (float_of_int (Machine.period m Machine.Clusters));
      Obs.Timeseries.push g.ch_icn_period ~t:now
        (float_of_int (Machine.period m Machine.Icn));
      ignore cycle);
  g

(* -------- exports -------- *)

let decision_to_json d =
  Obs.Json.Obj
    [
      ("cycle", Obs.Json.Int d.d_cycle);
      ("domain", Obs.Json.Str d.d_domain);
      ("from", Obs.Json.Int d.d_from);
      ("to", Obs.Json.Int d.d_to);
      ("reason", Obs.Json.Str d.d_reason);
      ("temp_k", Obs.Json.Float d.d_temp_k);
      ("icn_backlog", Obs.Json.Float d.d_icn_backlog);
      ("asleep", Obs.Json.Bool d.d_asleep);
    ]

(** The decision log as JSON (oldest first) — merged into the
    [--stats-json] export under the "governor" key. *)
let to_json g =
  Obs.Json.Obj
    [
      ("interval", Obs.Json.Int g.interval);
      ("samples", Obs.Json.Int g.samples);
      ("temp_hi", Obs.Json.Float g.temp_hi);
      ("icn_hi", Obs.Json.Float g.icn_hi);
      ("decisions", Obs.Json.List (List.map decision_to_json (decisions g)));
    ]

(** Export governor activity into a metrics registry:
    [sim.governor.set_period_total{domain, reason}] counters, the sample
    count, and the final clock periods. *)
let export g reg =
  Obs.Metrics.inc ~by:g.samples (Obs.Metrics.counter reg "sim.governor.samples");
  List.iter
    (fun d ->
      Obs.Metrics.inc
        (Obs.Metrics.counter reg
           ~labels:[ ("domain", d.d_domain); ("reason", d.d_reason) ]
           "sim.governor.set_period_total"))
    g.decisions;
  Obs.Metrics.set
    (Obs.Metrics.gauge reg ~labels:[ ("domain", "clusters") ] "sim.governor.period")
    (float_of_int (Machine.period g.m Machine.Clusters));
  Obs.Metrics.set
    (Obs.Metrics.gauge reg ~labels:[ ("domain", "icn") ] "sim.governor.period")
    (float_of_int (Machine.period g.m Machine.Icn));
  Obs.Metrics.set
    (Obs.Metrics.gauge reg "sim.governor.temp_k")
    (Thermal.max_temperature g.thermal);
  Obs.Metrics.set
    (Obs.Metrics.gauge reg "sim.governor.icn_backlog")
    (Obs.Timeseries.mean g.ch_icn)
