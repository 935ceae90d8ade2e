(** Fig. 5 + §III-D — discrete-event vs discrete-time simulation, and the
    macro-actor grouping threshold.

    The paper contrasts the DT main loop (poll every component, advance
    time by one) with the DE main loop (pop the next event), and reports
    that grouping closely-related components into a macro-actor (one event
    iterating all of them per cycle) beats one-actor-per-component once
    the event rate passes a threshold — about 800 events/cycle for empty
    action code on their JVM.

    This experiment simulates [n] trivial components for a fixed number of
    cycles under three engines built on the same {!Desim} substrate:

    - DE, one actor per component (n events per cycle),
    - DE, one macro-actor (1 event per cycle, iterating n components),
    - a plain DT loop (no event list at all). *)

open Bench_util

let sim_cycles = 2_000

let de_per_component n =
  let s = Desim.Scheduler.create () in
  let work = ref 0 in
  for _ = 1 to n do
    let rec action () =
      incr work;
      if Desim.Scheduler.now s < sim_cycles then Desim.Scheduler.schedule s ~delay:1 action
    in
    Desim.Scheduler.schedule s ~delay:1 action
  done;
  ignore (Desim.Scheduler.run s);
  !work

let de_macro_actor n =
  let s = Desim.Scheduler.create () in
  let work = ref 0 in
  let c = Desim.Clock.create s ~name:"macro" ~period:1 in
  Desim.Clock.on_tick c (fun _ ->
      for _ = 1 to n do
        incr work
      done);
  Desim.Clock.start c;
  Desim.Scheduler.stop s ~time:sim_cycles ();
  ignore (Desim.Scheduler.run s);
  !work

let dt_loop n =
  let work = ref 0 in
  let time = ref 0 in
  while !time <= sim_cycles do
    for _ = 1 to n do
      incr work
    done;
    incr time
  done;
  !work

let run () =
  section
    "Fig. 5 / \xc2\xa7III-D: DE vs DT main loops and the macro-actor threshold";
  Printf.printf "%8s %18s %18s %18s %14s\n" "n" "DE per-component" "DE macro-actor"
    "DT loop" "macro speedup";
  Printf.printf "%8s %18s %18s %18s\n" "" "(ns/comp-cycle)" "(ns/comp-cycle)"
    "(ns/comp-cycle)";
  let crossover = ref None in
  List.iter
    (fun n ->
      let per f = bechamel_ns_per_run ~quota:1.5 ~name:"engine" (fun () -> ignore (f n))
                  /. float_of_int (n * sim_cycles) in
      let de_pc = per de_per_component in
      let de_ma = per de_macro_actor in
      let dt = per dt_loop in
      let speedup = de_pc /. de_ma in
      if speedup > 2.0 && !crossover = None then crossover := Some n;
      Printf.printf "%8d %18.2f %18.2f %18.2f %13.1fx\n%!" n de_pc de_ma dt speedup)
    [ 1; 4; 16; 64; 256; 800; 2048 ];
  (match !crossover with
  | Some n ->
    Printf.printf
      "\nmacro-actor grouping pays off well before ~%d events/cycle (paper: \
       threshold ~800 events/cycle for empty action code)\n"
      n
  | None -> print_endline "\nmacro-actor grouping advantage below 2x in this range");
  print_endline
    "DE does not poll idle components: unlike the DT loop its cost scales \n\
     with events, not with components x cycles, which is why XMTSim gates \n\
     idle clusters and groups the interconnection network into a macro-actor."
