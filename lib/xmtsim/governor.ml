(* Telemetry-driven DVFS governor (paper §III-B) — see governor.mli. *)

type decision = {
  d_cycle : int;  (** simulated time of the decision *)
  d_domain : string;  (** "clusters" | "icn" *)
  d_from : int;  (** period before *)
  d_to : int;  (** period after *)
  d_reason : string;  (** "thermal-high" | "icn-congestion" | "recover" *)
  d_temp_k : float;  (** hotspot temperature at decision time *)
  d_icn_backlog : float;  (** windowed mean backlog per module, cycles *)
}

(* ICN backlog samples the decisions average over *)
let window = 64

(* the period a throttled domain runs at *)
let throttle_period = 2

type t = {
  m : Machine.t;
  tracer : Obs.Tracer.t option;  (* decisions become instant events here *)
  mutable sampler : Sampler.t option;  (** set once attached *)
  interval : int;
  temp_hi : float;
  icn_hi : float;
  base_cluster_period : int;
  base_icn_period : int;
  icn : float Queue.t;  (** the last [window] backlog samples, oldest first *)
  mutable decisions : decision list;  (** newest first *)
}

let sampler g = Option.get g.sampler
let samples g = Sampler.samples (sampler g)
let decisions g = List.rev g.decisions

(* summed oldest first: float addition does not reassociate, and the
   thresholds compare against this exact value *)
let icn_mean g =
  if Queue.is_empty g.icn then 0.0
  else Queue.fold ( +. ) 0.0 g.icn /. float_of_int (Queue.length g.icn)

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
  let set domain name ~reason period =
    let from = Machine.period g.m domain in
    if from <> period then begin
      Machine.set_period g.m domain period;
      let d =
        {
          d_cycle = cycle;
          d_domain = name;
          d_from = from;
          d_to = period;
          d_reason = reason;
          d_temp_k = temp;
          d_icn_backlog = icn_w;
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
              ("icn_backlog", Obs.Tracer.A_float icn_w) ]
          "set_period"
    end
  in
  let throttled base = max throttle_period base in
  if temp >= g.temp_hi then begin
    (* thermal emergency: chip-wide slowdown *)
    set Machine.Clusters "clusters" ~reason:"thermal-high"
      (throttled g.base_cluster_period);
    set Machine.Icn "icn" ~reason:"thermal-high" (throttled g.base_icn_period)
  end
  else if icn_w >= g.icn_hi then
    (* congestion: slow injection, keep the network draining at speed *)
    set Machine.Clusters "clusters" ~reason:"icn-congestion"
      (throttled g.base_cluster_period)
  else if temp <= g.temp_hi -. 2.0 && icn_w <= g.icn_hi /. 2.0 then begin
    set Machine.Clusters "clusters" ~reason:"recover" g.base_cluster_period;
    set Machine.Icn "icn" ~reason:"recover" g.base_icn_period
  end

let attach ?power_params ?thermal_params ?(temp_hi = 326.0) ?(icn_hi = 6.0)
    ?stream ?tracer ~interval m =
  let g =
    {
      m;
      tracer;
      sampler = None;
      interval;
      temp_hi;
      icn_hi;
      base_cluster_period = Machine.period m Machine.Clusters;
      base_icn_period = Machine.period m Machine.Icn;
      icn = Queue.create ();
      decisions = [];
    }
  in
  let on_sample s _cycle =
    let now = Machine.cycles m and icn_now = icn_backlog_per_module m in
    Queue.push icn_now g.icn;
    if Queue.length g.icn > window then ignore (Queue.pop g.icn);
    (* decisions react to the windowed mean, not the instantaneous
       spike — the "windowed ICN occupancy" of the in-flight layer *)
    decide g ~cycle:now ~temp:(Sampler.temperature s) ~icn_w:(icn_mean g);
    [ ("icn_backlog", icn_now) ]
  in
  g.sampler <-
    Some
      (Sampler.attach ?power_params ?thermal_params ?stream ~name:"governor"
         ~interval m on_sample);
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
    ]

(** The decision log as JSON (oldest first) — merged into the
    [--export stats] record under the "governor" key. *)
let to_json g =
  Obs.Json.Obj
    [
      ("interval", Obs.Json.Int g.interval);
      ("samples", Obs.Json.Int (samples g));
      ("temp_hi", Obs.Json.Float g.temp_hi);
      ("icn_hi", Obs.Json.Float g.icn_hi);
      ("decisions", Obs.Json.List (List.map decision_to_json (decisions g)));
    ]

(** Export governor activity into a metrics registry:
    [sim.governor.set_period_total{domain, reason}] counters, the sample
    count, and the final clock periods. *)
let export g reg =
  Obs.Metrics.inc ~by:(samples g) (Obs.Metrics.counter reg "sim.governor.samples");
  List.iter
    (fun d ->
      Obs.Metrics.inc
        (Obs.Metrics.counter reg
           ~labels:[ ("domain", d.d_domain); ("reason", d.d_reason) ]
           "sim.governor.set_period_total"))
    g.decisions;
  List.iter
    (fun (domain, name) ->
      Obs.Metrics.set
        (Obs.Metrics.gauge reg ~labels:[ ("domain", name) ] "sim.governor.period")
        (float_of_int (Machine.period g.m domain)))
    [ (Machine.Clusters, "clusters"); (Machine.Icn, "icn") ];
  Obs.Metrics.set (Obs.Metrics.gauge reg "sim.governor.temp_k") (Sampler.temperature (sampler g));
  Obs.Metrics.set (Obs.Metrics.gauge reg "sim.governor.icn_backlog") (icn_mean g)
