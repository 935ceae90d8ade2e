(** Dynamic power and thermal management through the activity plug-in
    interface (paper §III-B, §III-F).

    Runs a compute-heavy kernel on the 64-TCU configuration while a
    {!Xmtsim.Sampler} hook reads the power model and the lumped-RC
    thermal model (the HotSpot substitute), and throttles the cluster
    clock domain when the hottest component crosses a trip temperature —
    "XMTSim is the only publicly available many-core simulator that allows
    evaluation of mechanisms, such as dynamic power and thermal
    management."  Finishes with the ASCII floorplan of §III-E.

    Run with: dune exec examples/thermal_dvfs.exe *)

let trip_kelvin = 326.0
let sample_every = 2000

let run ~throttle =
  let src = Core.Kernels.par_comp ~threads:1024 ~iters:600 in
  let compiled = Core.Toolchain.compile src in
  let config = Xmtsim.Config.chip1024 in
  let m = Core.Toolchain.machine ~config compiled in
  let throttled = ref false in
  let log = ref [] in
  let sampler =
    Xmtsim.Sampler.attach
      ~power_params:
        { Xmtsim.Power.default with
          Xmtsim.Power.e_alu = 0.5;
          leak_cluster = 1.0 }
      ~thermal_params:Xmtsim.Thermal.demo ~name:"thermal-manager"
      ~interval:sample_every m (fun s cycle ->
        let tmax = Xmtsim.Sampler.temperature s in
        log := (cycle, Xmtsim.Sampler.watts s, tmax, !throttled) :: !log;
        if throttle then
          if tmax > trip_kelvin && not !throttled then begin
            throttled := true;
            Xmtsim.Machine.set_period m Xmtsim.Machine.Clusters 2
          end
          else if tmax < trip_kelvin -. 2.0 && !throttled then begin
            throttled := false;
            Xmtsim.Machine.set_period m Xmtsim.Machine.Clusters 1
          end;
        [])
  in
  let r = Xmtsim.Machine.run m in
  (r, List.rev !log, sampler)

let () =
  Printf.printf "compute-intensive kernel on chip1024; trip point %.0f K\n\n"
    trip_kelvin;
  print_endline "--- run 1: no thermal management ---";
  let r1, log1, s1 = run ~throttle:false in
  List.iteri
    (fun i (cycle, w, t, _) ->
      if i mod 4 = 0 then
        Printf.printf "  cycle %8d  power %6.1f W  Tmax %6.2f K\n" cycle w t)
    log1;
  let peak1 = Xmtsim.Sampler.peak_temperature s1 in
  Printf.printf "  finished in %d cycles, peak temperature %.2f K\n\n"
    r1.Xmtsim.Machine.cycles peak1;

  print_endline "--- run 2: DVFS thermal manager (activity plug-in) ---";
  let r2, log2, s2 = run ~throttle:true in
  List.iteri
    (fun i (cycle, w, t, thr) ->
      if i mod 4 = 0 then
        Printf.printf "  cycle %8d  power %6.1f W  Tmax %6.2f K%s\n" cycle w t
          (if thr then "  [throttled]" else ""))
    log2;
  let peak2 = Xmtsim.Sampler.peak_temperature s2 in
  Printf.printf "  finished in %d cycles, peak temperature %.2f K\n\n"
    r2.Xmtsim.Machine.cycles peak2;

  Printf.printf
    "the manager trades %d extra cycles for a %.2f K lower peak temperature\n\n"
    (r2.Xmtsim.Machine.cycles - r1.Xmtsim.Machine.cycles)
    (peak1 -. peak2);

  let temps = Xmtsim.Thermal.temperatures (Xmtsim.Sampler.thermal s2) in
  print_string
    (Xmtsim.Floorplan.render ~title:"final cluster temperatures (K)" ~grid_w:8
       (Array.sub temps 0 64))
