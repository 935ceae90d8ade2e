(** [table1]: the four Table I groups of [bench/exp_table1.ml], run
    cycle-accurate on chip1024 in a serial loop on one thread.  The
    simulator does nearly all the host work here: the parallel groups
    drive the cluster tick over 1024 TCUs and the interconnect, the
    serial groups the master path and clock gating.

    Sizes are exp_table1's divided by a common factor, so the groups
    keep exp_table1's balance, and small enough that a run holds about
    a hundred passes: its fastest third, which the latency figures come
    from, then holds the 100 program runs a p90 needs. *)

let config = Xmtsim.Config.chip1024
let threads = 2048
let n = 65536
let scale = 4
let par_mem_iters = 24 / scale
let par_comp_iters = 80 / scale
let ser_mem_iters = 4000 / scale
let ser_comp_iters = 30000 / scale

let recurrence x =
  let x = ((x * 3) + 1) land 65535 in
  x lxor (x lsr 3)

let rec iterate k x = if k = 0 then x else iterate (k - 1) (recurrence x)

(* B after [walkers] strided walks of [iters] steps: B[i] = A[i] + 1 on
   every visited index *)
let strided_walks ~a ~walkers ~iters =
  let b = Array.make n 0 in
  for t = 0 to walkers - 1 do
    let idx = ref t in
    for _ = 1 to iters do
      b.(!idx) <- a.(!idx) + 1;
      idx := !idx + 97;
      if !idx >= n then idx := !idx - n
    done
  done;
  b

type group = {
  prog : Setup.program;
  global : string;  (** result global checked after every run *)
  expect : int array;
}

let groups ~seed =
  let a = Sim.inputs ~seed ~n in
  let mm = Isa.Memmap.of_ints [ ("A", a) ] in
  let ser_x = iterate ser_comp_iters 1 in
  [
    {
      prog =
        Setup.program ~memmap:mm "par_mem"
          (Core.Kernels.par_mem ~threads ~iters:par_mem_iters ~n);
      global = "B";
      expect = strided_walks ~a ~walkers:threads ~iters:par_mem_iters;
    };
    {
      prog = Setup.program "par_comp" (Core.Kernels.par_comp ~threads ~iters:par_comp_iters);
      global = "B";
      expect = Array.init threads (fun t -> iterate par_comp_iters (t + 1));
    };
    {
      prog =
        Setup.program ~memmap:mm "ser_mem" (Core.Kernels.ser_mem ~iters:ser_mem_iters ~n);
      global = "B";
      expect = strided_walks ~a ~walkers:1 ~iters:ser_mem_iters;
    };
    {
      prog = Setup.program "ser_comp" (Core.Kernels.ser_comp ~iters:ser_comp_iters);
      global = "out";
      expect = [| ser_x |];
    };
  ]

type measured = {
  group : group;
  compiled : Core.Toolchain.compiled;
  output : string;  (** functional mode's output: the reference *)
  cycles : int;
  instrs : int;
}

let run ~seed ~seconds =
  let groups = groups ~seed in
  let compiled, (), setup_again, setup_rest =
    Setup.run ~extra:ignore ~release:ignore (List.map (fun g -> g.prog) groups)
  in
  (* an untimed reference run per group fixes the exact counts every
     timed run must reproduce *)
  let measured =
    List.map2
      (fun group (_, c) ->
        let name = group.prog.Setup.name in
        let output = (Core.Toolchain.run_functional c).Core.Toolchain.output in
        let m = Core.Toolchain.machine ~config c in
        let w0 = Sim.alloc_words () in
        let r = Xmtsim.Machine.run m in
        let w1 = Sim.alloc_words () in
        let cycles = r.Xmtsim.Machine.cycles in
        let stats = Xmtsim.Machine.stats m in
        let events = Xmtsim.Machine.events_processed m in
        Ledger.check (r.Xmtsim.Machine.output = output)
          "%s: output %S, functional mode %S" name r.Xmtsim.Machine.output output;
        Ledger.set ("xmtsim.alloc_words_per_cycle." ^ name) ((w1 -. w0) /. float_of_int cycles);
        Ledger.set ("desim.events_per_cycle." ^ name) (float_of_int events /. float_of_int cycles);
        ( { group; compiled = c; output; cycles; instrs = Xmtsim.Stats.total_instrs stats },
          (stats, events) ))
      groups compiled
  in
  let counts = List.map snd measured and measured = List.map fst measured in
  let run_ms = Hashtbl.create 4 and builds = ref [] in
  (* per pass: its wall seconds and each program run's (build + run)
     seconds, in [measured] order *)
  let untraced = ref [] and traced = ref [] in
  let pass i =
    setup_again ();
    let on = Ledger.traced_unit i in
    let jobs, secs =
      Host.timed (fun () ->
          Span.with_span ~on ~req:i "perfbench.pass" (fun pid ->
              List.map
                (fun g ->
                  let name = g.group.prog.Setup.name in
                  incr Ledger.attempted;
                  let m, build =
                    Host.timed (fun () ->
                        Span.with_span ~parent:pid ~on ~req:i "xmtsim.machine_build" (fun _ ->
                            Core.Toolchain.machine ~config g.compiled))
                  in
                  let r, run =
                    Host.timed (fun () ->
                        Span.with_span ~parent:pid ~on ~req:i "xmtsim.run" (fun _ ->
                            Xmtsim.Machine.run m))
                  in
                  Hashtbl.add run_ms name (run *. 1e3);
                  builds := build :: !builds;
                  let cycles = r.Xmtsim.Machine.cycles in
                  if not r.Xmtsim.Machine.halted then Ledger.fail "%s pass %d: no halt" name i
                  else if r.Xmtsim.Machine.output <> g.output then
                    Ledger.fail "%s pass %d: output %S, functional mode %S" name i
                      r.Xmtsim.Machine.output g.output
                  else if cycles <> g.cycles then
                    Ledger.fail "%s pass %d: %d cycles, reference run %d" name i cycles g.cycles
                  else if
                    Core.Toolchain.read_global m g.compiled g.group.global
                      (Array.length g.group.expect)
                    <> g.group.expect
                  then Ledger.fail "%s pass %d: wrong %s" name i g.group.global;
                  build +. run)
                measured))
    in
    if on then traced := secs :: !traced else untraced := (secs, jobs) :: !untraced
  in
  (* The passes that give the time figures, the fastest third, must hold
     the samples a p90 needs. *)
  let fast_needed = (Stat.needed 0.9 + List.length measured - 1) / List.length measured in
  Ledger.loop ~seconds
    ~min_units:(((3 * fast_needed) - 2) * if !Ledger.tracing then 2 else 1)
    pass;
  let instrs = List.fold_left (fun a g -> a + g.instrs) 0 measured in
  let pass_cycles = List.fold_left (fun a g -> a + g.cycles) 0 measured in
  (* Every pass is the same work.  The rates come from the 10th
     percentile of the pass times, the latency samples are the program
     runs of the fastest third of passes, all in reference seconds
     (NOTES.md compares estimators). *)
  let to_ref = Host.run_factor () in
  let n = List.length !untraced in
  let fast =
    List.sort (fun (a, _) (b, _) -> Float.compare a b) !untraced
    |> List.filteri (fun i _ -> i < max ((n + 2) / 3) fast_needed)
  in
  let per_pass = Stat.quantile (List.map fst !untraced) 0.1 *. to_ref in
  Ledger.set "sim_instrs_per_s" (float_of_int instrs /. per_pass);
  Ledger.set "sim_cycles_per_s" (float_of_int pass_cycles /. per_pass);
  Ledger.set "jobs_per_s" (float_of_int (List.length measured) /. per_pass);
  (* a program run's latency: its machine build plus its run *)
  let lat = List.concat_map (fun (_, jobs) -> List.map (fun s -> s *. to_ref *. 1e3) jobs) fast in
  Ledger.set "job_latency_p50_ms" (Stat.quantile lat 0.5);
  Ledger.set "job_latency_p90_ms" (Stat.quantile lat 0.9);
  Ledger.notei "job_latency.samples" (List.length lat);
  Ledger.notei "passes" n;
  Ledger.note "group_ms.fast"
    (Obs.Json.Obj
       (List.mapi
          (fun k g ->
            ( g.group.prog.Setup.name,
              Obs.Json.Float (Stat.median (List.map (fun (_, jobs) -> List.nth jobs k *. 1e3) fast)) ))
          measured));
  Ledger.note "unit_secs" (Obs.Json.List (List.rev_map (fun (s, _) -> Obs.Json.Float s) !untraced));
  Ledger.note "run_secs"
    (Obs.Json.List
       (List.rev_map (fun (_, jobs) -> Obs.Json.List (List.map (fun s -> Obs.Json.Float s) jobs)) !untraced));
  Ledger.seti "sim_cycles" pass_cycles;
  (* predict mode on held-out chip1024 *)
  let errs =
    List.map
      (fun g ->
        let _, snap, h_ms = Sim.harvest ~on:!Ledger.tracing ~req:0 g.compiled in
        let predicted, m_ms = Sim.model ~on:!Ledger.tracing ~req:0 ~config snap in
        (Sim.abs_err_pct ~predicted ~cycles:g.cycles, h_ms, m_ms))
      measured
  in
  Ledger.set "predict_mae_pct" (Stat.mean (List.map (fun (e, _, _) -> e) errs));
  Ledger.set "predict.harvest_ms" (Stat.median (List.map (fun (_, h, _) -> h) errs));
  Ledger.set "predict.model_ms" (Stat.median (List.map (fun (_, _, m) -> m) errs));
  (* per layer *)
  Ledger.set "xmtsim.machine_build_ms" (Stat.median !builds *. 1e3);
  List.iter
    (fun g ->
      let name = g.group.prog.Setup.name in
      Ledger.set ("xmtsim.run_ms." ^ name) (Stat.median (Hashtbl.find_all run_ms name)))
    measured;
  Sim.record_stats (List.map fst counts);
  let events = List.fold_left (fun a (_, e) -> a + e) 0 counts in
  Sim.record_events ~events ~cycles:pass_cycles;
  let run_ms = Stat.sum (Hashtbl.fold (fun _ ms acc -> ms :: acc) run_ms []) in
  let passes = n + List.length !traced in
  Ledger.set "desim.ns_per_event" (run_ms *. 1e6 /. float_of_int (events * passes));
  if !Ledger.tracing then begin
    let rate secs = float_of_int instrs /. secs in
    Ledger.set "trace.overhead_pct"
      (Ledger.overhead_pct
         ~untraced:(List.map (fun (s, _) -> rate s) !untraced)
         ~traced:(List.map rate !traced))
  end;
  Ledger.set "peak_rss_mb" (Host.peak_rss_mb "self");
  setup_rest ()
