(** [sweep]: a design-space campaign through [Campaign.run_request] on a
    warm pool and a warm artifact cache.

    The configs are the fpga64 points of [bench/exp_designspace.ml];
    the kernels straddle fpga64's 8192-word shared cache ([par_mem] at
    n = 32768 is DRAM-bound, [compaction] and [reduce_tree] at n = 4096
    are cache-resident); every (kernel, point) runs in cycle and in
    predict mode.  The campaign pool, the predict harvest and model and
    many short fpga64 machine builds dominate; the compiler does almost
    nothing once the cache is warm. *)

module T = Core.Toolchain

let sweeps =
  [
    ("icn_latency", [ 2; 6; 12; 24; 48 ]);
    ("dram_latency", [ 20; 60; 150; 400 ]);
    ("dram_bandwidth", [ 1; 2; 4; 8 ]);
    ("num_cache_modules", [ 2; 4; 8; 16; 32 ]);
  ]

let points =
  List.concat_map
    (fun (key, values) ->
      List.map
        (fun v ->
          let p = Printf.sprintf "%s=%d" key v in
          (p, Xmtsim.Config.with_overrides Xmtsim.Config.fpga64 [ p ]))
        values)
    sweeps

(* pools at most as wide as the host *)
let width = min 2 (Domain.recommended_domain_count ())

let programs ~seed =
  let a n = Sim.inputs ~seed ~n in
  [
    Setup.program
      ~memmap:(Isa.Memmap.of_ints [ ("A", a 32768) ])
      "par_mem"
      (Core.Kernels.par_mem ~threads:512 ~iters:24 ~n:32768);
    (* every element non-zero, so the compacted count is data-independent *)
    Setup.program
      ~memmap:(Isa.Memmap.of_ints [ ("A", a 4096) ])
      "compaction" (Core.Kernels.compaction ~n:4096);
    Setup.program
      ~memmap:(Isa.Memmap.of_ints [ ("A", a 4096) ])
      "reduce_tree" (Core.Kernels.reduce_tree ~n:4096);
  ]

let specs programs =
  List.concat_map
    (fun (p : Setup.program) ->
      List.concat_map
        (fun (point, config) ->
          List.map
            (fun mode ->
              let name = Printf.sprintf "%s/%s/%s" p.name point (T.mode_name mode) in
              (name, T.job ~name ~memmap:p.memmap ~config ~mode p.source))
            [ T.Cycle; T.Predict ])
        points)
    programs

type sample = {
  wall : float;
  jobs : int;
  cycle_instrs : int;
  cycle_cycles : int;
  cycle_secs : float;  (** summed wall of the cycle-mode jobs *)
  job_secs : float array;  (** per job, in submission order *)
  busy : float;  (** summed job wall over width x campaign wall *)
}

let run ~seed ~seconds ~run_dir ~daemon =
  let programs = programs ~seed in
  let _compiled, pool, setup_again, setup_rest =
    Setup.run programs
      ~extra:(fun () -> Campaign.Pool.create ~workers:width ())
      ~release:Campaign.Pool.shutdown
  in
  Fun.protect ~finally:setup_rest @@ fun () ->
  Fun.protect ~finally:(fun () -> Campaign.Pool.shutdown pool) @@ fun () ->
  let specs = specs programs in
  let req = Campaign.Request.make ~jobs:width specs in
  let reference =
    List.map
      (fun (p : Setup.program) ->
        (p.source, (T.exec ~memmap:p.memmap ~functional:true p.source).T.output))
      programs
  in
  let artifacts = T.Artifacts.create () in
  (* an untimed campaign warms the cache and fixes the report every
     timed campaign must reproduce *)
  let warm = Campaign.run_request ~pool ~artifacts req in
  let want_report = Obs.Json.to_string (Campaign.report_to_json ~host:false warm) in
  let untraced = ref [] and traced = ref [] in
  let queue_wait = ref [] and build_ms = ref [] in
  let harvest_ms = ref [] and model_ms = ref [] in
  let failed_jobs = ref 0 and retries = ref 0 in
  let last = ref warm and art_delta = ref (0, 0) in
  let campaign i =
    (* a campaign takes seconds, a set-up milliseconds *)
    for _ = 1 to 4 do
      setup_again ()
    done;
    let on = Ledger.traced_unit i in
    let h0, m0 = T.Artifacts.stats artifacts in
    let results, wall =
      Host.timed (fun () ->
          Span.with_span ~on ~req:i "campaign.run_request" (fun cid ->
              let on_event =
                if not on then None
                else begin
                  let t_submit = Host.now () in
                  let started = Hashtbl.create 128 in
                  Some
                    (function
                    | Campaign.Job_started { index; _ } ->
                      let t = Host.now () in
                      Hashtbl.replace started index t;
                      queue_wait := ((t -. t_submit) *. 1e3) :: !queue_wait
                    | Campaign.Job_finished { index; _ } | Campaign.Job_failed { index; _ } ->
                      ignore
                        (Span.interval ~parent:cid ~on ~req:index "campaign.job"
                           (Hashtbl.find started index) (Host.now ())))
                end
              in
              Campaign.run_request ~pool ~artifacts ?on_event req))
    in
    let h1, m1 = T.Artifacts.stats artifacts in
    art_delta := (h1 - h0, m1 - m0);
    last := results;
    Ledger.attempted := !Ledger.attempted + Array.length results;
    failed_jobs := !failed_jobs + Campaign.failed_count results;
    Array.iter
      (fun r ->
        retries := !retries + r.Campaign.r_attempts - 1;
        match r.Campaign.r_outcome with
        | Error f -> Ledger.fail "%s: %s" r.Campaign.r_name f.Campaign.f_exn
        | Ok run ->
          let want = List.assoc r.Campaign.r_job.T.source reference in
          Ledger.check (run.T.output = want) "%s: output %S, functional mode %S"
            r.Campaign.r_name run.T.output want)
      results;
    if Obs.Json.to_string (Campaign.report_to_json ~host:false results) <> want_report then
      Ledger.fail "campaign %d: report differs from the first campaign's" i;
    let job_secs = Array.map (fun r -> r.Campaign.r_wall_seconds) results in
    let cycle = List.filter (fun r -> r.Campaign.r_job.T.mode = T.Cycle) (Array.to_list results) in
    let runs = List.filter_map (fun r -> Result.to_option r.Campaign.r_outcome) cycle in
    let s =
      {
        wall;
        jobs = Array.length results;
        cycle_instrs = List.fold_left (fun a r -> a + r.T.instructions) 0 runs;
        cycle_cycles = List.fold_left (fun a r -> a + r.T.cycles) 0 runs;
        cycle_secs = List.fold_left (fun a r -> a +. r.Campaign.r_wall_seconds) 0.0 cycle;
        job_secs;
        busy = Array.fold_left ( +. ) 0.0 job_secs /. (float_of_int width *. wall);
      }
    in
    if on then begin
      traced := s :: !traced;
      (* the machine-build and predict layers, timed outside the campaign *)
      Span.with_span ~on ~req:i "perfbench.layers" (fun pid ->
          let c = T.compile ~memmap:(List.hd programs).memmap (List.hd programs).source in
          List.iter
            (fun (_, config) ->
              let _, secs =
                Host.timed (fun () ->
                    Span.with_span ~parent:pid ~on ~req:i "xmtsim.machine_build" (fun _ ->
                        T.machine ~config c))
              in
              build_ms := (secs *. 1e3) :: !build_ms)
            points;
          List.iter
            (fun (p : Setup.program) ->
              let c = T.Artifacts.get artifacts ~memmap:p.memmap p.source in
              let _, snap, h = Sim.harvest ~parent:pid ~on ~req:i c in
              harvest_ms := h :: !harvest_ms;
              List.iter
                (fun (_, config) ->
                  let _, m = Sim.model ~parent:pid ~on ~req:i ~config snap in
                  model_ms := m :: !model_ms)
                points)
            programs)
    end
    else untraced := s :: !untraced
  in
  Ledger.loop ~seconds ~min_units:(if !Ledger.tracing then 6 else 3) campaign;
  let jobs_rate s = float_of_int s.jobs /. s.wall in
  (* Every campaign is the same work: the time figures come from the
     run's fastest third of campaigns, in reference seconds. *)
  let to_ref = Host.run_factor () in
  let fast =
    List.sort (fun a b -> Float.compare (jobs_rate b) (jobs_rate a)) !untraced
    |> List.filteri (fun i _ -> i < (List.length !untraced + 2) / 3)
  in
  Ledger.set "jobs_per_s" (Stat.median (List.map jobs_rate fast) /. to_ref);
  let lat = List.concat_map (fun s -> Array.to_list s.job_secs) fast in
  Ledger.set "job_latency_p50_ms" (Stat.quantile lat 0.5 *. to_ref *. 1e3);
  Ledger.set "job_latency_p90_ms" (Stat.quantile lat 0.9 *. to_ref *. 1e3);
  Ledger.notei "job_latency.samples" (List.length lat);
  Ledger.notei "campaigns" (List.length !untraced + List.length !traced);
  Ledger.note "unit_rates"
    (Obs.Json.List (List.rev_map (fun s -> Obs.Json.Float (jobs_rate s)) !untraced));
  (* exact figures, from the last campaign *)
  let results = Array.to_list !last in
  let ok = List.filter_map (fun r -> Result.to_option r.Campaign.r_outcome) results in
  let cycle_runs =
    List.filter_map
      (fun r ->
        match (r.Campaign.r_job.T.mode, r.Campaign.r_outcome) with
        | T.Cycle, Ok run -> Some run
        | _ -> None)
      results
  in
  let sim_cycles = List.fold_left (fun a r -> a + r.T.cycles) 0 cycle_runs in
  Ledger.seti "sim_cycles" sim_cycles;
  let sim_rate f s = float_of_int (f s) /. (s.cycle_secs *. to_ref) in
  Ledger.set "sim_instrs_per_s" (Stat.median (List.map (sim_rate (fun s -> s.cycle_instrs)) fast));
  Ledger.set "sim_cycles_per_s" (Stat.median (List.map (sim_rate (fun s -> s.cycle_cycles)) fast));
  (* jobs come in (cycle, predict) pairs per (kernel, point) *)
  let rec pairs = function
    | c :: p :: rest -> Sim.abs_err_pct ~predicted:p.T.cycles ~cycles:c.T.cycles :: pairs rest
    | _ -> []
  in
  Ledger.set "predict_mae_pct" (Stat.mean (pairs ok));
  Ledger.set "peak_rss_mb" (Host.peak_rss_mb "self");
  (* per layer *)
  let hits, misses = !art_delta in
  Ledger.seti "core.artifacts.hits" hits;
  Ledger.seti "core.artifacts.misses" misses;
  let all = !untraced @ !traced in
  Ledger.set "campaign.job_ms_p50"
    (Stat.median (List.concat_map (fun s -> Array.to_list s.job_secs) all) *. 1e3);
  Ledger.set "campaign.pool_busy_frac" (Stat.median (List.map (fun s -> s.busy) all));
  Ledger.seti "campaign.failed" !failed_jobs;
  Ledger.seti "campaign.retries" !retries;
  Sim.record_stats (List.map (fun r -> r.T.stats) cycle_runs);
  let events = List.fold_left (fun a r -> a + r.T.events) 0 cycle_runs in
  Sim.record_events ~events ~cycles:sim_cycles;
  Ledger.notei "jobs_per_campaign" (List.length results);
  if !Ledger.tracing then begin
    Ledger.set "campaign.queue_wait_ms_p50" (Stat.median !queue_wait);
    Ledger.set "xmtsim.machine_build_ms" (Stat.median !build_ms);
    Ledger.set "predict.harvest_ms" (Stat.median !harvest_ms);
    Ledger.set "predict.model_ms" (Stat.median !model_ms);
    let cycle_secs = Stat.sum (List.map (fun s -> s.cycle_secs) all) in
    Ledger.set "desim.ns_per_event"
      (cycle_secs *. 1e9 /. float_of_int (events * List.length all));
    Ledger.set "trace.overhead_pct"
      (Ledger.overhead_pct ~untraced:(List.map jobs_rate !untraced) ~traced:(List.map jobs_rate !traced))
  end;
  (* the serve layer has no workload of its own in BENCHMARK.json; the
     traced sweep run measures it with a short served session *)
  if !Ledger.tracing then
    Serve_load.run ~seed ~seconds:(Float.min 5.0 seconds) ~run_dir ~daemon
