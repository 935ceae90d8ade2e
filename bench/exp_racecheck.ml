(** Race-detector overhead.

    The dynamic shadow-memory detector is detachable: a machine without
    one must pay nothing, and attaching one must never perturb the
    simulation itself — the detector only observes accesses at cache
    service time, it schedules no events.  Reproduction targets:
    bit-identical output and cycle count with the detector on and off,
    and a measured host-side cost of the shadow bookkeeping (reported,
    not gated — it is noise-sensitive).  The workload is the publication
    kernel, whose psm handshakes exercise the acquire/release tracking
    as well as the plain-access shadow updates. *)

open Bench_util

let n = 8192

let run () =
  section "racecheck: shadow-memory race-detector overhead";
  let compiled = compile (Core.Kernels.publication ~n) in
  let run_once ~attach =
    let m = Core.Toolchain.machine ~config:Xmtsim.Config.fpga64 compiled in
    let rd = if attach then Some (Xmtsim.Racedetect.attach m) else None in
    let r, secs = wall (fun () -> Xmtsim.Machine.run m) in
    (m, r, rd, secs)
  in
  (* best-of-3 wall times so the overhead figure is not dominated by a
     cold first run *)
  let best ~attach =
    let runs = List.init 3 (fun _ -> run_once ~attach) in
    List.fold_left
      (fun (bm, br, brd, bs) (m, r, rd, s) ->
        if s < bs then (m, r, rd, s) else (bm, br, brd, bs))
      (List.hd runs) (List.tl runs)
  in
  let m_off, r_off, _, secs_off = best ~attach:false in
  let m_on, r_on, rd, secs_on = best ~attach:true in
  let rd = Option.get rd in
  let cycles_off = Xmtsim.Machine.cycles m_off in
  let cycles_on = Xmtsim.Machine.cycles m_on in
  let overhead =
    if secs_off > 0.0 then 100.0 *. ((secs_on /. secs_off) -. 1.0) else 0.0
  in
  Printf.printf "  detector off: %s cycles, %.2f s host\n" (commas cycles_off)
    secs_off;
  Printf.printf "  detector on:  %s cycles, %.2f s host (%+.1f%% host cost)\n"
    (commas cycles_on) secs_on overhead;
  Printf.printf "  shadow events: %s, races: %d, epochs: %d\n"
    (commas (Xmtsim.Racedetect.events rd))
    (Xmtsim.Racedetect.race_count rd)
    (Xmtsim.Racedetect.epochs rd);
  check (cycles_off = cycles_on && r_off = r_on) "detector does not perturb the simulation";
  check (Xmtsim.Racedetect.race_count rd = 0) "fenced publication is race-free";
  pinned "publication kernel" ~expect:24_849 cycles_on
