(** Tests for the discrete-event engine (paper §III-C/D). *)

module D = Desim

let heap_pop_order () =
  let h = D.Event_heap.create () in
  D.Event_heap.add h ~time:5 ~prio:0 "c";
  D.Event_heap.add h ~time:1 ~prio:0 "a";
  D.Event_heap.add h ~time:3 ~prio:0 "b";
  let pop () = D.Event_heap.pop h in
  Tu.check_string "first" "a" (pop ());
  Tu.check_string "second" "b" (pop ());
  Tu.check_string "third" "c" (pop ())

let heap_priority_breaks_ties () =
  let h = D.Event_heap.create () in
  D.Event_heap.add h ~time:2 ~prio:5 "low-prio";
  D.Event_heap.add h ~time:2 ~prio:1 "high-prio";
  let x = D.Event_heap.pop h in
  Tu.check_string "priority first" "high-prio" x

let heap_fifo_within_priority () =
  let h = D.Event_heap.create () in
  for i = 0 to 9 do
    D.Event_heap.add h ~time:1 ~prio:0 i
  done;
  for i = 0 to 9 do
    let x = D.Event_heap.pop h in
    Tu.check_int (Printf.sprintf "fifo %d" i) i x
  done

let heap_empty_raises () =
  let h = D.Event_heap.create () in
  Alcotest.check_raises "empty pop" Not_found (fun () ->
      ignore (D.Event_heap.pop h : unit))

let heap_min_time () =
  let h = D.Event_heap.create () in
  Alcotest.(check (option int)) "empty" None (D.Event_heap.min_time h);
  D.Event_heap.add h ~time:7 ~prio:0 ();
  Alcotest.(check (option int)) "seven" (Some 7) (D.Event_heap.min_time h)

(* ------------------------------------------------------------------ *)

let scheduler_time_jumps () =
  (* DE simulation: time advances to event timestamps, not in unit steps
     (paper Fig. 5b). *)
  let s = D.Scheduler.create () in
  let seen = ref [] in
  D.Scheduler.schedule s ~delay:100 (fun () -> seen := 100 :: !seen);
  D.Scheduler.schedule s ~delay:3 (fun () -> seen := 3 :: !seen);
  let outcome = D.Scheduler.run s in
  Tu.check_bool "drained" true (outcome = D.Scheduler.Drained);
  Alcotest.(check (list int)) "order" [ 3; 100 ] (List.rev !seen);
  Tu.check_int "time" 100 (D.Scheduler.now s);
  Tu.check_int "events" 2 (D.Scheduler.events_processed s)

let scheduler_stop_event () =
  let s = D.Scheduler.create () in
  let ran = ref 0 in
  D.Scheduler.schedule s ~delay:1 (fun () -> incr ran);
  D.Scheduler.stop s ~time:5 ();
  D.Scheduler.schedule s ~delay:10 (fun () -> incr ran);
  let outcome = D.Scheduler.run s in
  Tu.check_bool "stopped" true (outcome = D.Scheduler.Stopped);
  Tu.check_int "only first ran" 1 !ran;
  Tu.check_int "stop time" 5 (D.Scheduler.now s)

let scheduler_budget () =
  let s = D.Scheduler.create () in
  let rec reschedule () = D.Scheduler.schedule s ~delay:1 reschedule in
  reschedule ();
  let outcome = D.Scheduler.run ~max_events:50 s in
  Tu.check_bool "budget" true (outcome = D.Scheduler.Budget)

let scheduler_rejects_past () =
  let s = D.Scheduler.create () in
  D.Scheduler.schedule s ~delay:10 (fun () ->
      Alcotest.check_raises "past" (Invalid_argument
        "Scheduler.schedule_at: time 5 is in the past (now 10)") (fun () ->
          D.Scheduler.schedule_at s ~time:5 (fun () -> ())));
  ignore (D.Scheduler.run s)

let scheduler_stale_stop () =
  (* Regression: a budget stop armed for one run must not leak into the
     next.  Run 1 arms a stop at t=100 but terminates early (t=1, the
     machine-halt pattern); pre-fix, the unconsumed t=100 stop stayed in
     the heap and silently truncated run 2 before its t=149 event. *)
  let s = D.Scheduler.create () in
  D.Scheduler.stop s ~time:100 ();
  D.Scheduler.schedule s ~delay:1 (fun () -> D.Scheduler.stop s ());
  Tu.check_bool "run 1 stopped" true (D.Scheduler.run s = D.Scheduler.Stopped);
  Tu.check_int "run 1 halt time" 1 (D.Scheduler.now s);
  let ran = ref false in
  D.Scheduler.schedule s ~delay:149 (fun () -> ran := true);
  D.Scheduler.stop s ~time:200 ();
  Tu.check_bool "run 2 stopped" true (D.Scheduler.run s = D.Scheduler.Stopped);
  Tu.check_bool "event past the stale stop ran" true !ran;
  Tu.check_int "run 2 reaches its own stop" 200 (D.Scheduler.now s)

let scheduler_stop_rejects_past () =
  let s = D.Scheduler.create () in
  D.Scheduler.schedule s ~delay:10 (fun () ->
      Alcotest.check_raises "past stop"
        (Invalid_argument "Scheduler.stop: time 5 is in the past (now 10)")
        (fun () -> D.Scheduler.stop s ~time:5 ()));
  ignore (D.Scheduler.run s)

let scheduler_nested_scheduling () =
  let s = D.Scheduler.create () in
  let log = ref [] in
  D.Scheduler.schedule s ~delay:1 (fun () ->
      log := "a" :: !log;
      D.Scheduler.schedule s ~delay:0 (fun () -> log := "b" :: !log));
  ignore (D.Scheduler.run s);
  Alcotest.(check (list string)) "nested" [ "a"; "b" ] (List.rev !log)

(* ------------------------------------------------------------------ *)

(* a component is a closure that reschedules itself, as the machine's
   are written *)
let actor_notify () =
  let s = D.Scheduler.create () in
  let count = ref 0 in
  let rec action () =
    incr count;
    if !count < 5 then D.Scheduler.schedule s ~delay:2 action
  in
  D.Scheduler.schedule s ~delay:2 action;
  ignore (D.Scheduler.run s);
  Tu.check_int "notified five times" 5 !count;
  Tu.check_int "one event per notification" 5 (D.Scheduler.events_processed s);
  Tu.check_int "time" 10 (D.Scheduler.now s)

(* ------------------------------------------------------------------ *)

let clock_ticks () =
  let s = D.Scheduler.create () in
  let c = D.Clock.create s ~name:"clk" ~period:3 in
  let ticks = ref [] in
  D.Clock.on_tick c (fun cy -> ticks := cy :: !ticks);
  D.Clock.start c;
  D.Scheduler.stop s ~time:10 ();
  ignore (D.Scheduler.run s);
  Alcotest.(check (list int)) "cycles" [ 0; 1; 2; 3 ] (List.rev !ticks)

let clock_phases_order () =
  let s = D.Scheduler.create () in
  let c = D.Clock.create s ~name:"clk" ~period:1 in
  let log = ref [] in
  D.Clock.on_tick ~phase:1 c (fun _ -> log := "transfer" :: !log);
  D.Clock.on_tick ~phase:0 c (fun _ -> log := "negotiate" :: !log);
  D.Clock.start c;
  D.Scheduler.stop s ~time:0 ();
  ignore (D.Scheduler.run s);
  (* stop fires at prio_stop, after the tick at time 0 *)
  Alcotest.(check (list string)) "phases" [ "negotiate"; "transfer" ] (List.rev !log)

let clock_dvfs () =
  (* frequency change mid-run (paper §III-B) *)
  let s = D.Scheduler.create () in
  let c = D.Clock.create s ~name:"clk" ~period:1 in
  let times = ref [] in
  D.Clock.on_tick c (fun _ ->
      times := D.Scheduler.now s :: !times;
      if D.Scheduler.now s = 2 then D.Clock.set_period c 4);
  D.Clock.start c;
  D.Scheduler.stop s ~time:12 ();
  ignore (D.Scheduler.run s);
  (* the new period takes effect after the tick at t=2 *)
  Alcotest.(check (list int)) "tick times" [ 0; 1; 2; 6; 10 ] (List.rev !times)

let clock_gating () =
  let s = D.Scheduler.create () in
  let c = D.Clock.create s ~name:"clk" ~period:1 in
  let n = ref 0 in
  D.Clock.on_tick c (fun _ ->
      incr n;
      if !n = 3 then D.Clock.disable c);
  D.Clock.start c;
  D.Scheduler.schedule s ~delay:10 (fun () -> D.Clock.enable c);
  D.Scheduler.stop s ~time:12 ();
  ignore (D.Scheduler.run s);
  (* 3 ticks, gap, then ticks at 11 and 12 *)
  Tu.check_int "ticks" 5 !n

let clock_sleep_wake () =
  let s = D.Scheduler.create () in
  let c = D.Clock.create s ~name:"clk" ~period:2 in
  let times = ref [] in
  D.Clock.on_tick c (fun _ ->
      times := D.Scheduler.now s :: !times;
      if D.Scheduler.now s = 4 then D.Clock.sleep c);
  D.Clock.start c;
  D.Scheduler.schedule s ~delay:11 (fun () -> D.Clock.wake c);
  D.Scheduler.stop s ~time:15 ();
  ignore (D.Scheduler.run s);
  (* sleeping skips 6..10; wake at 11 -> next grid point 12 *)
  Alcotest.(check (list int)) "tick times" [ 0; 2; 4; 12; 14 ] (List.rev !times)

let clock_wake_grid_tiebreak () =
  (* Wake landing exactly on a grid point from transfer priority: the
     grid tick at that instant already popped (as a no-op or not at all),
     so the clock must resume one period later — matching an ungated run
     where a package arriving at prio_transfer is seen on the NEXT tick. *)
  let s = D.Scheduler.create () in
  let c = D.Clock.create s ~name:"clk" ~period:2 in
  let times = ref [] in
  D.Clock.on_tick c (fun _ ->
      times := D.Scheduler.now s :: !times;
      if D.Scheduler.now s = 4 then D.Clock.sleep c);
  D.Clock.start c;
  D.Scheduler.schedule s ~prio:D.Scheduler.prio_transfer ~delay:8 (fun () ->
      D.Clock.wake c);
  D.Scheduler.stop s ~time:11 ();
  ignore (D.Scheduler.run s);
  Alcotest.(check (list int)) "tick times" [ 0; 2; 4; 10 ] (List.rev !times);
  (* grid points 6 and 8 were gated away *)
  Tu.check_int "skipped" 2 (D.Clock.skipped_ticks c)

let clock_wake_grid_at_tick_prio () =
  (* Same instant, but the waker runs at prio_tick (a scheduled callback,
     e.g. a DRAM fill completing): in an ungated run the grid tick pops
     after it, so the woken clock still ticks at the wake instant. *)
  let s = D.Scheduler.create () in
  let c = D.Clock.create s ~name:"clk" ~period:2 in
  let times = ref [] in
  D.Clock.on_tick c (fun _ ->
      times := D.Scheduler.now s :: !times;
      if D.Scheduler.now s = 4 then D.Clock.sleep c);
  D.Clock.start c;
  D.Scheduler.schedule s ~delay:8 (fun () -> D.Clock.wake c);
  D.Scheduler.stop s ~time:11 ();
  ignore (D.Scheduler.run s);
  Alcotest.(check (list int)) "tick times" [ 0; 2; 4; 8; 10 ] (List.rev !times)

let clock_sleep_pending_no_tick_leak () =
  (* The tick at t=0 fires and schedules the t=2 tick; sleeping at t=1
     must not let that pending event run handlers or count a cycle. *)
  let s = D.Scheduler.create () in
  let c = D.Clock.create s ~name:"clk" ~period:2 in
  let times = ref [] in
  D.Clock.on_tick c (fun _ -> times := D.Scheduler.now s :: !times);
  D.Clock.start c;
  D.Scheduler.schedule s ~prio:D.Scheduler.prio_transfer ~delay:1 (fun () ->
      D.Clock.sleep c);
  D.Scheduler.stop s ~time:10 ();
  ignore (D.Scheduler.run s);
  Alcotest.(check (list int)) "only t=0 ticked" [ 0 ] (List.rev !times);
  Tu.check_int "cycles" 1 (D.Clock.cycles c)

let clock_set_period_during_sleep () =
  (* A DVFS change while gated takes effect at the next woken tick: the
     resume grid is anchored at the last fired tick (t=4) with the new
     period (3), so 4 + 2*3 = 10 is the first tick >= the t=9 wake.  The
     skipped span before the change is accrued at the old period (the
     single grid point at t=6), not recounted at the new rate. *)
  let s = D.Scheduler.create () in
  let c = D.Clock.create s ~name:"clk" ~period:2 in
  let times = ref [] in
  D.Clock.on_tick c (fun _ ->
      times := D.Scheduler.now s :: !times;
      if D.Scheduler.now s = 4 then D.Clock.sleep c);
  D.Clock.start c;
  D.Scheduler.schedule s ~delay:6 (fun () -> D.Clock.set_period c 3);
  D.Scheduler.schedule s ~delay:9 (fun () -> D.Clock.wake c);
  D.Scheduler.stop s ~time:14 ();
  ignore (D.Scheduler.run s);
  Alcotest.(check (list int)) "tick times" [ 0; 2; 4; 10; 13 ] (List.rev !times);
  Tu.check_int "no double-count across the period change" 1
    (D.Clock.skipped_ticks c)

let clock_skipped_ticks_estimate () =
  let s = D.Scheduler.create () in
  let c = D.Clock.create s ~name:"clk" ~period:1 in
  D.Clock.on_tick c (fun _ -> if D.Scheduler.now s = 2 then D.Clock.sleep c);
  D.Clock.start c;
  (* live estimate mid-sleep: grid points 3..6 never fired *)
  D.Scheduler.schedule s ~prio:D.Scheduler.prio_transfer ~delay:6 (fun () ->
      Tu.check_int "live estimate while asleep" 4 (D.Clock.skipped_ticks c));
  D.Scheduler.schedule s ~delay:10 (fun () -> D.Clock.wake c);
  D.Scheduler.stop s ~time:20 ();
  ignore (D.Scheduler.run s);
  (* slept over 3..9 (the wake instant ticks again), then ran 10..20 *)
  Tu.check_int "fired" 14 (D.Clock.cycles c);
  Tu.check_int "skipped" 7 (D.Clock.skipped_ticks c);
  Tu.check_int "fired + skipped = ungated cycles" 21
    (D.Clock.cycles c + D.Clock.skipped_ticks c)

(* A bounded sleep: period 2, the clock sleeps at t=4 (grid index 2)
   until grid index 6, t=12.  [ev] runs in the middle of the sleep.
   Returns the (time, grid index) of every tick, the clock and the host
   events processed up to the stop at t=17. *)
let bounded_sleep ev =
  let s = D.Scheduler.create () in
  let c = D.Clock.create s ~name:"clk" ~period:2 in
  let ticks = ref [] in
  D.Clock.on_tick c (fun i ->
      ticks := (D.Scheduler.now s, i + D.Clock.skipped_ticks c) :: !ticks;
      if D.Scheduler.now s = 4 then D.Clock.sleep ~until:6 c);
  D.Clock.start c;
  ev s c;
  D.Scheduler.stop s ~time:17 ();
  ignore (D.Scheduler.run s);
  (List.rev !ticks, c, D.Scheduler.events_processed s)

let ticks = Alcotest.(list (pair int int))

let clock_bounded_sleep () =
  let got, c, events = bounded_sleep (fun _ _ -> ()) in
  (* the sleeping clock ticks exactly at the bound, then runs freely *)
  Alcotest.check ticks "ticks" [ (0, 0); (2, 1); (4, 2); (12, 6); (14, 7); (16, 8) ] got;
  Tu.check_int "skipped exact" 3 (D.Clock.skipped_ticks c);
  Tu.check_int "one event for the bound" (6 + 1) events

let clock_wake_supersedes_bound () =
  (* an earlier wake resumes the grid; the bound's event is withdrawn, so
     t=12 ticks once *)
  let got, c, events =
    bounded_sleep (fun s c -> D.Scheduler.schedule s ~delay:7 (fun () -> D.Clock.wake c))
  in
  Alcotest.check ticks "ticks"
    [ (0, 0); (2, 1); (4, 2); (8, 4); (10, 5); (12, 6); (14, 7); (16, 8) ]
    got;
  Tu.check_int "skipped exact" 1 (D.Clock.skipped_ticks c);
  Tu.check_int "no stale bound event" (8 + 1 + 1) events;
  (* a wake that lands on the bound's grid point keeps its event *)
  let got, c, events =
    bounded_sleep (fun s c ->
        D.Scheduler.schedule s ~prio:D.Scheduler.prio_transfer ~delay:11 (fun () ->
            D.Clock.wake c))
  in
  Alcotest.check ticks "wake on the bound" [ (0, 0); (2, 1); (4, 2); (12, 6); (14, 7); (16, 8) ] got;
  Tu.check_int "skipped exact on the bound" 3 (D.Clock.skipped_ticks c);
  Tu.check_int "no second tick event" (6 + 1 + 1) events

let clock_set_period_moves_bound () =
  (* period 3 from t=5: grid index 6 is 4 + 4*3 = 16 *)
  let got, c, _ =
    bounded_sleep (fun s c -> D.Scheduler.schedule s ~delay:5 (fun () -> D.Clock.set_period c 3))
  in
  Alcotest.check ticks "ticks" [ (0, 0); (2, 1); (4, 2); (16, 6) ] got;
  Tu.check_int "skipped exact" 3 (D.Clock.skipped_ticks c)

(* Two domains: [a] (rank 0, period 2) hands [b] (rank 1, period 3) one
   unit of work at each tick on a multiple of 6, the instants they share,
   and wakes it; gated, [b] sleeps whenever it has none.  Returns the
   (time, rank) of every tick that did work, in the order they ran. *)
let ranked_domains ~gated =
  let s = D.Scheduler.create () in
  let a = D.Clock.create s ~name:"a" ~period:2 in
  let b = D.Clock.create ~rank:1 s ~name:"b" ~period:3 in
  let log = ref [] and work = ref 0 in
  D.Clock.on_tick a (fun _ ->
      let now = D.Scheduler.now s in
      log := (now, 0) :: !log;
      if now mod 6 = 0 then begin
        incr work;
        D.Clock.wake b
      end);
  D.Clock.on_tick b (fun _ ->
      if !work > 0 then begin
        decr work;
        log := (D.Scheduler.now s, 1) :: !log
      end;
      if gated && !work = 0 then D.Clock.sleep b);
  D.Clock.start a;
  D.Clock.start b;
  D.Scheduler.stop s ~time:30 ();
  ignore (D.Scheduler.run s);
  List.rev !log

let clock_rank_order () =
  (* ungated, [b]'s tick at 6 was scheduled at 3 and [a]'s at 4: by
     insertion order [b] would tick first and find no work until 9 *)
  let ungated = ranked_domains ~gated:false in
  Alcotest.check ticks "rank 0 first at every shared instant" (List.sort compare ungated) ungated;
  Alcotest.check ticks "work done at the instant it is handed over"
    [ (0, 1); (6, 1); (12, 1); (18, 1); (24, 1); (30, 1) ]
    (List.filter (fun (_, r) -> r = 1) ungated);
  Alcotest.check ticks "gated equals ungated" ungated (ranked_domains ~gated:true)

let clock_rank_bounds () =
  let s = D.Scheduler.create () in
  let top = D.Scheduler.prio_negotiate - D.Scheduler.prio_tick - 1 in
  ignore (D.Clock.create ~rank:top s ~name:"top" ~period:1);
  List.iter
    (fun rank ->
      match D.Clock.create ~rank s ~name:"bad" ~period:1 with
      | _ -> Alcotest.failf "rank %d accepted" rank
      | exception Invalid_argument _ -> ())
    [ -1; top + 1 ]

let clock_macro_actor_grouping () =
  (* one clock event drives many components per cycle (§III-D): event
     count is per-cycle, not per-component *)
  let s = D.Scheduler.create () in
  let c = D.Clock.create s ~name:"macro" ~period:1 in
  let work = ref 0 in
  for _ = 1 to 100 do
    D.Clock.on_tick c (fun _ -> incr work)
  done;
  D.Clock.start c;
  D.Scheduler.stop s ~time:9 ();
  ignore (D.Scheduler.run s);
  Tu.check_int "work" 1000 !work;
  (* 10 tick events + stop *)
  Tu.check_bool "few events" true (D.Scheduler.events_processed s <= 12)

(* ------------------------------------------------------------------ *)

let rng_deterministic () =
  let a = D.Rng.create ~seed:7 and b = D.Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Tu.check_int "same stream" (D.Rng.int a 1000) (D.Rng.int b 1000)
  done

let rng_split_independent () =
  let a = D.Rng.create ~seed:7 in
  let c = D.Rng.split a in
  let x = D.Rng.int a 1000000 and y = D.Rng.int c 1000000 in
  Tu.check_bool "different streams" true (x <> y)

let rng_bounds () =
  let a = D.Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = D.Rng.int a 17 in
    Tu.check_bool "in range" true (v >= 0 && v < 17)
  done

(* qcheck: the heap always pops in nondecreasing key order *)
let qcheck_heap_sorted =
  QCheck.Test.make ~count:200 ~long_factor:20 ~name:"event heap pops sorted"
    QCheck.(list (pair small_nat small_nat))
    (fun entries ->
      let h = D.Event_heap.create () in
      List.iter (fun (t, p) -> D.Event_heap.add h ~time:t ~prio:p ()) entries;
      let rec drain last ok =
        if D.Event_heap.is_empty h then ok
        else begin
          let t = D.Event_heap.top_time h and p = D.Event_heap.top_prio h in
          D.Event_heap.pop h;
          drain (t, p) (ok && (t, p) >= last)
        end
      in
      drain (min_int, min_int) true)

let qcheck_heap_remove =
  QCheck.Test.make ~count:200 ~long_factor:20
    ~name:"event heap remove keeps the rest sorted"
    QCheck.(list (pair small_nat small_nat))
    (fun entries ->
      let h = D.Event_heap.create () in
      let evs = List.mapi (fun i (t, p) -> (t, p, ref i)) entries in
      List.iter (fun (t, p, x) -> D.Event_heap.add h ~time:t ~prio:p x) evs;
      List.iter (fun (_, _, x) -> if !x mod 3 = 1 then D.Event_heap.remove h x) evs;
      let rec drain last acc =
        if D.Event_heap.is_empty h then Some (List.sort compare acc)
        else begin
          let key = (D.Event_heap.top_time h, D.Event_heap.top_prio h) in
          let x = D.Event_heap.pop h in
          if key < last then None else drain key (!x :: acc)
        end
      in
      drain (min_int, min_int) []
      = Some (List.filter (fun i -> i mod 3 <> 1) (List.init (List.length entries) Fun.id)))

(* qcheck: random interleavings of add, pop and remove agree with a list
   kept sorted by (time, prio, insertion): every popped payload, the top
   key and [min_time].  Times reach 2^40 and prios span the whole int
   range, with small values drawn often so equal keys are common. *)
type heap_op = Hadd of int * int | Hpop | Hremove of int

let qcheck_heap_model =
  let gen =
    QCheck.Gen.(
      let time = oneof [ int_bound 4; int_bound (1 lsl 40) ] in
      let prio = oneof [ int_range (-3) 3; int; oneofl [ min_int; max_int ] ] in
      list_size (int_bound 300)
        (frequency
           [ (4, map2 (fun t p -> Hadd (t, p)) time prio); (2, return Hpop);
             (1, map (fun k -> Hremove k) nat) ]))
  in
  let print =
    QCheck.Print.list (function
      | Hadd (t, p) -> Printf.sprintf "add %d %d" t p
      | Hpop -> "pop"
      | Hremove k -> Printf.sprintf "remove %d" k)
  in
  QCheck.Test.make ~count:300 ~long_factor:20 ~name:"event heap matches a sorted-list model"
    (QCheck.make ~print gen)
    (fun ops ->
      let h = D.Event_heap.create () in
      (* (time, prio, insertion, payload), sorted; payloads are distinct refs *)
      let model = ref [] and n = ref 0 in
      let key (t, p, i, _) = (t, p, i) in
      let agree () =
        match !model with
        | [] ->
          D.Event_heap.is_empty h
          && D.Event_heap.min_time h = None
          && (match D.Event_heap.top_time h with _ -> false | exception Not_found -> true)
          && (match D.Event_heap.top_prio h with _ -> false | exception Not_found -> true)
        | (t, p, _, _) :: _ ->
          (not (D.Event_heap.is_empty h))
          && D.Event_heap.top_time h = t
          && D.Event_heap.top_prio h = p
          && D.Event_heap.min_time h = Some t
      in
      let step = function
        | Hadd (t, p) ->
          let x = ref !n in
          D.Event_heap.add h ~time:t ~prio:p x;
          model := List.merge (fun a b -> compare (key a) (key b)) [ (t, p, !n, x) ] !model;
          incr n;
          true
        | Hpop -> (
          match !model with
          | [] -> ( match D.Event_heap.pop h with _ -> false | exception Not_found -> true)
          | (_, _, _, x) :: rest ->
            model := rest;
            D.Event_heap.pop h == x)
        | Hremove k -> (
          match !model with
          | [] ->
            D.Event_heap.remove h (ref (-1));
            true
          | l ->
            let (_, _, _, x) = List.nth l (k mod List.length l) in
            D.Event_heap.remove h x;
            model := List.filter (fun (_, _, _, y) -> y != x) l;
            true)
      in
      List.for_all (fun op -> step op && agree ()) ops)

(* qcheck: the event list used the way the scheduler uses it.  Every add
   lands at the last popped time plus a delay: a few cycles, just inside,
   at and just past the wheel's horizon, two revolutions, 400 cycles or a
   jump far beyond (an overflow event), with the scheduler's prios and
   arbitrary ones.  Pops and removes of near and far events interleave,
   so the wheel turns many times and its events sort against the
   overflow's.  The model is the same sorted list as above. *)
type sched_op = Sadd of int * int | Spop | Sremove of bool * int

let qcheck_heap_scheduler =
  let w = D.Event_heap.slots in
  let gen =
    QCheck.Gen.(
      let delay =
        frequency
          [ (8, int_bound 3); (3, int_range (w - 1) (w + 1)); (1, return (2 * w));
            (3, return 400); (1, return (1 lsl 40)) ]
      in
      let prio = frequency [ (6, oneofl [ 0; 10; 20 ]); (1, return 1000); (2, int) ] in
      list_size (int_range 1 500)
        (frequency
           [ (5, map2 (fun d p -> Sadd (d, p)) delay prio); (4, return Spop);
             (1, map2 (fun near k -> Sremove (near, k)) bool nat) ]))
  in
  let print =
    QCheck.Print.list (function
      | Sadd (d, p) -> Printf.sprintf "add +%d %d" d p
      | Spop -> "pop"
      | Sremove (near, k) -> Printf.sprintf "remove %s %d" (if near then "near" else "far") k)
  in
  QCheck.Test.make ~count:300 ~long_factor:20 ~name:"event heap matches the model on scheduler-shaped use"
    (QCheck.make ~print gen)
    (fun ops ->
      let h = D.Event_heap.create () in
      let model = ref [] and n = ref 0 and now = ref 0 in
      let key (t, p, i, _) = (t, p, i) in
      let agree () =
        match !model with
        | [] -> D.Event_heap.is_empty h && D.Event_heap.min_time h = None
        | (t, p, _, _) :: _ ->
          (not (D.Event_heap.is_empty h))
          && D.Event_heap.top_time h = t
          && D.Event_heap.top_prio h = p
          && D.Event_heap.min_time h = Some t
      in
      let pop () =
        match !model with
        | [] -> ( match D.Event_heap.pop h with _ -> false | exception Not_found -> true)
        | (t, _, _, x) :: rest ->
          model := rest;
          now := t;
          D.Event_heap.pop h == x
      in
      let step = function
        | Sadd (d, p) ->
          let t = !now + d and x = ref !n in
          D.Event_heap.add h ~time:t ~prio:p x;
          model := List.merge (fun a b -> compare (key a) (key b)) [ (t, p, !n, x) ] !model;
          incr n;
          true
        | Spop -> pop ()
        | Sremove (near, k) ->
          (match !model with
          | [] -> D.Event_heap.remove h (ref (-1))
          | l ->
            let len = List.length l in
            let i = if near then k mod len else len - 1 - (k mod len) in
            let (_, _, _, x) = List.nth l i in
            D.Event_heap.remove h x;
            model := List.filter (fun (_, _, _, y) -> y != x) l);
          true
      in
      let rec drain () = !model = [] || (pop () && agree () && drain ()) in
      List.for_all (fun op -> step op && agree ()) ops && drain () && D.Event_heap.is_empty h)

let () =
  Alcotest.run "desim"
    [
      ( "event_heap",
        [
          Tu.tc "pop order" heap_pop_order;
          Tu.tc "priority ties" heap_priority_breaks_ties;
          Tu.tc "fifo within priority" heap_fifo_within_priority;
          Tu.tc "empty raises" heap_empty_raises;
          Tu.tc "min time" heap_min_time;
          QCheck_alcotest.to_alcotest qcheck_heap_sorted;
          QCheck_alcotest.to_alcotest qcheck_heap_remove;
          QCheck_alcotest.to_alcotest qcheck_heap_model;
          QCheck_alcotest.to_alcotest qcheck_heap_scheduler;
        ] );
      ( "scheduler",
        [
          Tu.tc "time jumps" scheduler_time_jumps;
          Tu.tc "stop event" scheduler_stop_event;
          Tu.tc "event budget" scheduler_budget;
          Tu.tc "rejects past" scheduler_rejects_past;
          Tu.tc "stale stop is a no-op" scheduler_stale_stop;
          Tu.tc "stop rejects past" scheduler_stop_rejects_past;
          Tu.tc "nested scheduling" scheduler_nested_scheduling;
        ] );
      ("actor", [ Tu.tc "notify" actor_notify ]);
      ( "clock",
        [
          Tu.tc "ticks" clock_ticks;
          Tu.tc "phase order" clock_phases_order;
          Tu.tc "dvfs" clock_dvfs;
          Tu.tc "gating" clock_gating;
          Tu.tc "sleep/wake" clock_sleep_wake;
          Tu.tc "wake on grid (transfer prio)" clock_wake_grid_tiebreak;
          Tu.tc "wake on grid (tick prio)" clock_wake_grid_at_tick_prio;
          Tu.tc "sleep with pending tick" clock_sleep_pending_no_tick_leak;
          Tu.tc "set_period during sleep" clock_set_period_during_sleep;
          Tu.tc "skipped-tick estimate" clock_skipped_ticks_estimate;
          Tu.tc "bounded sleep ticks at its grid point" clock_bounded_sleep;
          Tu.tc "earlier wake supersedes the bound" clock_wake_supersedes_bound;
          Tu.tc "set_period moves the bound" clock_set_period_moves_bound;
          Tu.tc "same-instant ticks in rank order" clock_rank_order;
          Tu.tc "rank stays below prio_negotiate" clock_rank_bounds;
          Tu.tc "macro-actor grouping" clock_macro_actor_grouping;
        ] );
      ( "rng",
        [
          Tu.tc "deterministic" rng_deterministic;
          Tu.tc "split" rng_split_independent;
          Tu.tc "bounds" rng_bounds;
        ] );
    ]
