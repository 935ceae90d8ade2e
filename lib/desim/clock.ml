type handler = int -> unit

type t = {
  name : string;
  sched : Scheduler.t;
  mutable period : int;
  mutable cycles : int;
  mutable handlers : (int * handler) list; (* (phase, handler), sorted *)
  mutable enabled : bool;
  mutable sleeping : bool;
  mutable started : bool;
  mutable tick_pending : bool; (* an event for our next tick is in the list *)
  mutable anchor : int; (* time of the last fired tick (start time if none) *)
  mutable skipped : int; (* accrued estimate of ticks gated away *)
  mutable counted : int; (* skipped ticks already accrued since [anchor] *)
  mutable fire : unit -> unit; (* the tick event, built at start *)
}

let create sched ~name ~period =
  if period <= 0 then invalid_arg "Clock.create: period must be positive";
  {
    name;
    sched;
    period;
    cycles = 0;
    handlers = [];
    enabled = true;
    sleeping = false;
    started = false;
    tick_pending = false;
    anchor = 0;
    skipped = 0;
    counted = 0;
    fire = ignore;
  }

let name t = t.name
let period t = t.period

(* Estimate of grid ticks in (anchor, now] not yet accounted for.  Pure
   bookkeeping for the skipped-tick metric — never used for scheduling. *)
let unaccounted_skips t =
  let now = Scheduler.now t.sched in
  max 0 ((now - t.anchor) / t.period - t.counted)

let set_period t p =
  if p <= 0 then invalid_arg "Clock.set_period: period must be positive";
  (* A sleeping clock accrues its skipped-tick estimate for the elapsed
     span at the old period first, so a DVFS change on a gated domain does
     not recount that span at the new rate (no double-counting). *)
  if t.sleeping && t.started && p <> t.period then begin
    let k = unaccounted_skips t in
    t.skipped <- t.skipped + k;
    t.counted <- t.counted + k
  end;
  t.period <- p

let cycles t = t.cycles

let skipped_ticks t =
  t.skipped + (if t.sleeping && t.started then unaccounted_skips t else 0)

let on_tick ?(phase = 0) t h =
  (* Stable insertion keeping phases ascending, registration order within. *)
  let rec insert = function
    | [] -> [ (phase, h) ]
    | (p, _) :: _ as rest when p > phase -> (phase, h) :: rest
    | x :: rest -> x :: insert rest
  in
  t.handlers <- insert t.handlers

let rec run_handlers c = function
  | [] -> ()
  | (_, h) :: rest ->
    h c;
    run_handlers c rest

let schedule_tick t ~at_least =
  if (not t.tick_pending) && t.enabled && not t.sleeping then begin
    t.tick_pending <- true;
    Scheduler.schedule_at t.sched ~prio:Scheduler.prio_tick ~time:at_least t.fire
  end

let fire t () =
  t.tick_pending <- false;
  if t.enabled && not t.sleeping then begin
    let c = t.cycles in
    t.cycles <- c + 1;
    t.anchor <- Scheduler.now t.sched;
    t.counted <- 0;
    run_handlers c t.handlers;
    schedule_tick t ~at_least:(Scheduler.now t.sched + t.period)
  end

let start t =
  if not t.started then begin
    t.started <- true;
    t.fire <- fire t;
    t.anchor <- Scheduler.now t.sched;
    schedule_tick t ~at_least:(Scheduler.now t.sched)
  end

let enabled t = t.enabled
let disable t = t.enabled <- false

let enable t =
  if not t.enabled then begin
    t.enabled <- true;
    if t.started then schedule_tick t ~at_least:(Scheduler.now t.sched + 1)
  end

let sleep t = t.sleeping <- true

let wake ?tick_at_now t =
  if t.sleeping then begin
    t.sleeping <- false;
    if t.started then begin
      let now = Scheduler.now t.sched in
      (* Resume on the period grid anchored at the last fired tick: the
         smallest anchor + k*period (k >= 1) that is >= now.  This is what
         makes gating invisible to cycle counts — a woken domain ticks at
         exactly the simulated times an ungated run would have. *)
      let delta = now - t.anchor in
      let k = max 1 ((delta + t.period - 1) / t.period) in
      let cand = t.anchor + (k * t.period) in
      let tick_at_now =
        match tick_at_now with
        | Some b -> b
        | None ->
          (* The ungated tick at this exact instant fires at [prio_tick];
             if the currently-executing event pops after that priority,
             that tick is already lost for this instant. *)
          Scheduler.current_prio t.sched <= Scheduler.prio_tick
      in
      let next = if cand = now && not tick_at_now then cand + t.period else cand in
      (* accrue the skipped-tick estimate for the grid points in
         (anchor, next) that never fired *)
      let virt = (next - t.anchor) / t.period - 1 in
      let add = max 0 (virt - t.counted) in
      t.skipped <- t.skipped + add;
      t.counted <- t.counted + add;
      schedule_tick t ~at_least:next
    end
  end

let sleeping t = t.sleeping
