let prio_tick = 0
let prio_negotiate = 10
let prio_transfer = 20
let prio_stop = 1000

(* Events are the closures themselves.  A stop event is a closure that
   carries the generation it was armed in; [run] bumps the generation when
   it returns, so stops left over from a finished run are drained as
   no-ops instead of truncating a later run. *)
type t = {
  events : (unit -> unit) Event_heap.t;
  mutable time : int;
  mutable processed : int;
  mutable stop_gen : int;
  mutable stopping : bool;  (* a stop of the current generation fired *)
  mutable cur_prio : int;
}

let create () =
  { events = Event_heap.create (); time = 0; processed = 0; stop_gen = 0;
    stopping = false; cur_prio = prio_tick }

let now t = t.time
let current_prio t = t.cur_prio

let schedule_at t ?(prio = prio_tick) ~time f =
  if time < t.time then
    invalid_arg
      (Printf.sprintf "Scheduler.schedule_at: time %d is in the past (now %d)"
         time t.time);
  Event_heap.add t.events ~time ~prio f

let schedule t ?prio ~delay f =
  if delay < 0 then invalid_arg "Scheduler.schedule: negative delay";
  schedule_at t ?prio ~time:(t.time + delay) f

let cancel t f = Event_heap.remove t.events f

let stop t ?time () =
  let time = match time with Some x -> x | None -> t.time in
  if time < t.time then
    invalid_arg
      (Printf.sprintf "Scheduler.stop: time %d is in the past (now %d)" time
         t.time);
  let gen = t.stop_gen in
  Event_heap.add t.events ~time ~prio:prio_stop (fun () ->
      if gen = t.stop_gen then t.stopping <- true)

type outcome = Stopped | Drained | Budget | Until

let never () = false

let rec loop t budget until =
  if budget = 0 then Budget
  else if Event_heap.is_empty t.events then Drained
  else begin
    let time = Event_heap.top_time t.events in
    if time > t.time && until () then begin
      (* the instant is over, as if a stop event had fired at its end *)
      t.cur_prio <- prio_stop;
      Until
    end
    else begin
      t.time <- time;
      t.cur_prio <- Event_heap.top_prio t.events;
      t.processed <- t.processed + 1;
      (Event_heap.pop t.events) ();
      if t.stopping then Stopped else loop t (budget - 1) until
    end
  end

let run ?(max_events = max_int) ?(until = never) t =
  t.stopping <- false;
  let outcome = loop t max_events until in
  t.stopping <- false;
  t.stop_gen <- t.stop_gen + 1;
  outcome

let events_processed t = t.processed
