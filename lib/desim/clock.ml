type handler = int -> unit

type t = {
  name : string;
  sched : Scheduler.t;
  prio : int; (* both tick events' priority: prio_tick + rank *)
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
  mutable bound : int; (* grid index a sleeping clock still ticks at, or -1 *)
  mutable bound_at : int; (* time of the bound's pending event, or -1 *)
  mutable bfire : unit -> unit; (* the bound's event, built at start *)
}

let create ?(rank = 0) sched ~name ~period =
  if period <= 0 then invalid_arg "Clock.create: period must be positive";
  if rank < 0 || Scheduler.prio_tick + rank >= Scheduler.prio_negotiate then
    invalid_arg "Clock.create: rank must be >= 0 and tick below prio_negotiate";
  {
    name;
    sched;
    prio = Scheduler.prio_tick + rank;
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
    bound = -1;
    bound_at = -1;
    bfire = ignore;
  }

let name t = t.name
let period t = t.period

(* Estimate of grid ticks in (anchor, now] not yet accounted for.  Pure
   bookkeeping for the skipped-tick metric — never used for scheduling. *)
let unaccounted_skips t =
  let now = Scheduler.now t.sched in
  max 0 ((now - t.anchor) / t.period - t.counted)

(* Grid index of the last fired tick: the ticks fired and skipped before it. *)
let last_index t = t.cycles - 1 + t.skipped - t.counted

(* accrue the grid points in (anchor, next) that never fired *)
let accrue t ~next =
  let add = max 0 (((next - t.anchor) / t.period) - 1 - t.counted) in
  t.skipped <- t.skipped + add;
  t.counted <- t.counted + add

let rec run_handlers c = function
  | [] -> ()
  | (_, h) :: rest ->
    h c;
    run_handlers c rest

let schedule_tick t ~at_least =
  if (not t.tick_pending) && t.enabled && not t.sleeping then begin
    t.tick_pending <- true;
    Scheduler.schedule_at t.sched ~prio:t.prio ~time:at_least t.fire
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

(* The bound's event: the sleeping clock's tick at its grid point, or the
   next tick of a wake that landed on it. *)
let bound_fire t () =
  t.bound_at <- -1;
  if t.bound >= 0 then begin
    t.bound <- -1;
    t.sleeping <- false;
    accrue t ~next:(Scheduler.now t.sched)
  end;
  fire t ()

(* Take the bound's event out of the list; a kept one was the pending tick. *)
let cancel_bound t =
  if t.bound_at >= 0 then begin
    Scheduler.cancel t.sched t.bfire;
    if t.bound < 0 then t.tick_pending <- false;
    t.bound_at <- -1
  end;
  t.bound <- -1

(* Scheduled as the clock goes to sleep, at the clock's own priority, the
   tick at grid index [u] sorts among other clocks' same-instant ticks as
   an ungated tick would. *)
let arm t u =
  cancel_bound t;
  t.bound <- u;
  t.bound_at <- max (Scheduler.now t.sched) (t.anchor + ((u - last_index t) * t.period));
  Scheduler.schedule_at t.sched ~prio:t.prio ~time:t.bound_at t.bfire

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
  t.period <- p;
  if t.bound >= 0 then arm t t.bound

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

let start t =
  if not t.started then begin
    t.started <- true;
    t.fire <- fire t;
    t.bfire <- bound_fire t;
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

let sleep ?until t =
  t.sleeping <- true;
  match until with
  | Some u when t.started -> arm t u
  | _ -> if t.bound >= 0 then cancel_bound t

let wake t =
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
      (* a waker popped after our priority: this instant's tick is past *)
      let late = cand = now && Scheduler.current_prio t.sched > t.prio in
      let next = if late then cand + t.period else cand in
      accrue t ~next;
      (* a bound event at [next] sorts as the ungated tick would: keep it *)
      if t.bound >= 0 then
        if t.bound_at = next && not t.tick_pending then begin
          t.bound <- -1;
          t.tick_pending <- true
        end
        else cancel_bound t;
      schedule_tick t ~at_least:next
    end
  end

let sleeping t = t.sleeping
