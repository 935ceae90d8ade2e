(** Live telemetry from a cycle-accurate run ([xmt.events.v1]): a
    passive periodic hook ({!Machine.add_passive_hook}) plus a {!Probe}
    for the end of the run.

    Emits a [run.start] record at attach, a [sim.heartbeat] every
    [heartbeat_cycles] cluster-clock grid cycles — the grid cycle, host
    events/sec over the window, currently gated domain count and the
    window's memory-wait fraction — with [window.close] rollups every 16
    heartbeats, and a [run.done] summary when the machine halts.  A
    heartbeat due while the cluster clock sleeps is emitted on its next
    fired tick, with that tick's grid cycle; the hook never wakes a clock
    or schedules an event, so a streamed run is bit-identical to an
    unstreamed one including the host event count. *)

let fail fmt = Printf.ksprintf (fun s -> raise (Machine.Sim_error s)) fmt

(** Attach stream [s] to [m] (default [heartbeat_cycles] 10000);
    returns the detach thunk.  Must be called before the first
    {!Machine.run}; raises {!Machine.Sim_error} afterwards, when a stream
    is already attached, or on a non-positive interval. *)
let attach ?(heartbeat_cycles = 10_000) m s =
  if Machine.started m then fail "Heartbeat.attach must be called before the first run";
  if heartbeat_cycles <= 0 then fail "Heartbeat.attach: heartbeat_cycles must be positive";
  if List.mem "stream" (Machine.probes m) then
    fail "Heartbeat.attach: a stream is already attached";
  let cfg = Machine.config m in
  Obs.Stream.emit s ~typ:"run.start" ~t:(Machine.cycles m)
    [
      ("config", Obs.Json.Str cfg.Config.name);
      ("clusters", Obs.Json.Int cfg.Config.num_clusters);
      ("tcus", Obs.Json.Int (cfg.Config.num_clusters * cfg.Config.tcus_per_cluster));
      ("instructions", Obs.Json.Int (Array.length (Machine.image m).Isa.Program.instrs));
      ("heartbeat_cycles", Obs.Json.Int heartbeat_cycles);
    ];
  let rollup = Obs.Stream.rollup ~window:16 s "sim.heartbeat" in
  (* the previous sample of each windowed quantity, so every heartbeat
     reports rates over its own window instead of run-to-date averages *)
  let last_events = ref 0 in
  let last_us = ref (Obs.Tracer.host_now_us ()) and last_busy = ref 0 and last_mw = ref 0 in
  let heartbeat cycle =
    let now = Machine.cycles m and events = Machine.events_processed m in
    let us = Obs.Tracer.host_now_us () in
    let d_secs = float_of_int (us - !last_us) /. 1e6 in
    let rate =
      if d_secs > 0.0 then float_of_int (events - !last_events) /. d_secs else 0.0
    in
    let gated =
      List.length
        (List.filter (Machine.domain_sleeping m)
           [ Machine.Clusters; Machine.Icn; Machine.Caches; Machine.Dram ])
    in
    let st = Machine.stats m in
    let busy = st.Stats.tcu_busy_cycles and mw = st.Stats.tcu_memwait_cycles in
    let d_busy = busy - !last_busy and d_mw = mw - !last_mw in
    let memwait_frac =
      if d_busy + d_mw = 0 then 0.0 else float_of_int d_mw /. float_of_int (d_busy + d_mw)
    in
    last_events := events;
    last_us := us;
    last_busy := busy;
    last_mw := mw;
    Obs.Stream.emit s ~typ:"sim.heartbeat" ~t:now
      [
        ("cycle", Obs.Json.Int cycle);
        ("events", Obs.Json.Int events);
        ("events_per_sec", Obs.Json.Float rate);
        ("gated_domains", Obs.Json.Int gated);
        ("memwait_frac", Obs.Json.Float memwait_frac);
      ];
    Obs.Stream.observe rollup ~t:now
      [
        ("events_per_sec", rate);
        ("gated_domains", float_of_int gated);
        ("memwait_frac", memwait_frac);
      ]
  in
  (* the per-run summary, once, after the halting run *)
  let finished = ref false in
  let run_done () =
    finished := true;
    Obs.Stream.close_rollup rollup;
    let now = Machine.cycles m in
    Obs.Stream.emit s ~typ:"run.done" ~t:now
      [
        ("cycles", Obs.Json.Int now);
        ("instructions", Obs.Json.Int (Stats.total_instrs (Machine.stats m)));
        ("events", Obs.Json.Int (Machine.events_processed m));
        ("output_bytes", Obs.Json.Int (String.length (Machine.output m)));
        ("halted", Obs.Json.Bool true);
      ]
  in
  let live = ref true in
  Machine.add_passive_hook m ~interval:heartbeat_cycles (fun c -> if !live then heartbeat c);
  let run_end ~halted = if halted && not !finished then run_done () in
  let detach = Machine.attach m { Probe.nop with name = "stream"; run_end } in
  fun () -> live := false; detach ()
