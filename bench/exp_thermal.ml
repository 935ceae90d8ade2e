(** §III-B/§III-F — dynamic power and thermal management.

    "A feature unique to XMTSim is the capability to evaluate runtime
    systems for dynamic power and thermal management."  An activity
    plug-in samples the power model, integrates the HotSpot-substitute
    thermal model, and (in the managed run) throttles the cluster clock
    domain at a trip temperature.  Reproduction targets: temperature rises
    with activity; the manager caps the peak at the cost of extra
    cycles. *)

open Bench_util

let trip = 326.0
let interval = 2000

let power_params =
  { Xmtsim.Power.default with Xmtsim.Power.e_alu = 0.5; leak_cluster = 1.0 }

let fresh_machine () =
  let src = Core.Kernels.par_comp ~threads:1024 ~iters:600 in
  let compiled = compile src in
  Core.Toolchain.machine ~config:Xmtsim.Config.chip1024 compiled

(* simulated cycles are deterministic, so these records give the CI
   regression gate a cheap benchmark pair to hold the line on *)
let record (r, secs) name m s =
  let events = Xmtsim.Machine.events_processed m in
  emit_record ~name
    [
      ("config", Obs.Json.Str "chip1024");
      ("cycles", Obs.Json.Int r.Xmtsim.Machine.cycles);
      ("host_wall_seconds", Obs.Json.Float secs);
      ("events_processed", Obs.Json.Int events);
      ( "events_per_sec",
        Obs.Json.Float (if secs > 0.0 then float_of_int events /. secs else 0.0) );
      ("peak_temp_k", Obs.Json.Float (Xmtsim.Sampler.peak_temperature s));
      ("avg_watts", Obs.Json.Float (Xmtsim.Sampler.mean_watts s));
    ]

let run_unmanaged () =
  let m = fresh_machine () in
  let samples = ref [] in
  let s =
    Xmtsim.Sampler.attach ~power_params ~thermal_params:Xmtsim.Thermal.demo
      ~name:"mgr" ~interval m (fun s cycle ->
        samples := (cycle, Xmtsim.Sampler.watts s, Xmtsim.Sampler.temperature s) :: !samples;
        [])
  in
  let r, secs = wall (fun () -> Xmtsim.Machine.run m) in
  record (r, secs) "thermal unmanaged" m s;
  (r.Xmtsim.Machine.cycles, s, List.rev !samples)

(* the managed run is the Governor plug-in itself: same power/thermal
   sampler, decisions taken on the windowed telemetry *)
let run_governed () =
  let m = fresh_machine () in
  let g =
    Xmtsim.Governor.attach ~power_params ~thermal_params:Xmtsim.Thermal.demo
      ~temp_hi:trip ~icn_hi:infinity ~interval m
  in
  let r, secs = wall (fun () -> Xmtsim.Machine.run m) in
  record (r, secs) "thermal governed" m (Xmtsim.Governor.sampler g);
  (r.Xmtsim.Machine.cycles, Xmtsim.Governor.sampler g, g)

let run () =
  section "\xc2\xa7III-F: power/temperature estimation and DVFS thermal management";
  let c1, s1, trace = run_unmanaged () in
  let c2, s2, g = run_governed () in
  let peak1 = Xmtsim.Sampler.peak_temperature s1 and w1 = Xmtsim.Sampler.mean_watts s1 in
  let peak2 = Xmtsim.Sampler.peak_temperature s2 and w2 = Xmtsim.Sampler.mean_watts s2 in
  print_endline "power/temperature profile (unmanaged run):";
  List.iteri
    (fun i (cycle, w, t) ->
      if i mod 8 = 0 then
        Printf.printf "  cycle %8d  %6.1f W  Tmax %6.2f K\n" cycle w t)
    trace;
  Printf.printf "\n%-28s %12s %10s %10s\n" "run" "cycles" "peak K" "avg W";
  Printf.printf "%-28s %12s %10.2f %10.1f\n" "no management" (commas c1) peak1 w1;
  Printf.printf "%-28s %12s %10.2f %10.1f\n" "DVFS governor (trip 326 K)" (commas c2)
    peak2 w2;
  let decisions = Xmtsim.Governor.decisions g in
  Printf.printf "\ngovernor decisions (%d):\n" (List.length decisions);
  List.iteri
    (fun i d ->
      if i < 12 then
        Printf.printf "  cycle %8d  %-8s period %d -> %d  (%s, Tmax %.2f K)\n"
          d.Xmtsim.Governor.d_cycle d.Xmtsim.Governor.d_domain
          d.Xmtsim.Governor.d_from d.Xmtsim.Governor.d_to
          d.Xmtsim.Governor.d_reason d.Xmtsim.Governor.d_temp_k)
    decisions;
  Printf.printf "\nshape checks:\n";
  check (peak1 > 318.5) "temperature rises above ambient during the run";
  check (peak2 < peak1) "manager lowers the peak (%.2f K vs %.2f K)" peak2 peak1;
  check (c2 > c1) "at an execution-time cost (+%d cycles)" (c2 - c1);
  check (decisions <> []) "governor logged set_period decisions"
