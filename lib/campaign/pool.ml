(** Persistent pull-based worker pool — see pool.mli.

    Helper domains are created once and parked on a condition variable
    between runs.  A run posts one step function and every participant
    calls it until it says stop, so which work a step takes — the next
    job index of a campaign, the next queued job of a served one — is
    the caller's cursor, not the pool's.  Jobs here are whole
    compile+simulate runs, milliseconds each, so a cursor shared by
    every participant is never the bottleneck. *)

type work = {
  step : worker:int -> bool;
  participants : int;  (** executors for this run, <= pool width *)
  mutable failure : exn option;
      (** first exception out of [step]; re-raised by {!run} after
          every participant has stopped *)
}

type t = {
  width : int;  (** total executors: the caller + width-1 helper domains *)
  mutable helpers : unit Domain.t array;
  lock : Mutex.t;
  wake : Condition.t;  (** helpers park here between runs *)
  finished : Condition.t;  (** the submitter waits here for [active = 0] *)
  mutable generation : int;  (** bumped once per posted run *)
  mutable current : work option;
  mutable active : int;  (** helpers still executing the current run *)
  mutable stopping : bool;
  mutable joined : bool;  (** helpers fully joined; set once by the
                              shutdown call that won the race *)
  stopped : Condition.t;  (** losers of the shutdown race wait here *)
}

let width t = t.width

(* One participant's whole run: step until told to stop.  A step that
   raises ends this participant only; the others keep stepping. *)
let participate pool w id =
  try
    while w.step ~worker:id do
      ()
    done
  with e ->
    Mutex.protect pool.lock (fun () ->
        if w.failure = None then w.failure <- Some e)

(* Helper-domain body: park on [wake] until a new generation (or
   shutdown) is posted, take part in the run if this helper is one of
   its participants, report completion, park again. *)
let helper_loop pool id () =
  Printexc.record_backtrace true;
  Mutex.lock pool.lock;
  let seen = ref 0 in
  let rec loop () =
    if pool.stopping then Mutex.unlock pool.lock
    else if pool.generation > !seen then begin
      seen := pool.generation;
      match pool.current with
      | Some w when id < w.participants ->
        Mutex.unlock pool.lock;
        participate pool w id;
        Mutex.lock pool.lock;
        pool.active <- pool.active - 1;
        if pool.active = 0 then Condition.broadcast pool.finished;
        loop ()
      | Some _ | None -> loop ()
    end
    else begin
      Condition.wait pool.wake pool.lock;
      loop ()
    end
  in
  loop ()

let create ?(workers = Domain.recommended_domain_count ()) () =
  let width = max 1 workers in
  let pool =
    {
      width;
      helpers = [||];
      lock = Mutex.create ();
      wake = Condition.create ();
      finished = Condition.create ();
      generation = 0;
      current = None;
      active = 0;
      stopping = false;
      joined = false;
      stopped = Condition.create ();
    }
  in
  pool.helpers <- Array.init (width - 1) (fun k ->
      Domain.spawn (helper_loop pool (k + 1)));
  pool

(* Idempotent and safe to race: exactly one caller wins the stopping
   flag and joins the helpers; every other caller — concurrent or
   later — waits until that join has completed, so any shutdown
   returning implies the helper domains are gone. *)
let shutdown pool =
  Mutex.lock pool.lock;
  if not pool.stopping then begin
    pool.stopping <- true;
    Condition.broadcast pool.wake;
    Mutex.unlock pool.lock;
    Array.iter Domain.join pool.helpers;
    Mutex.lock pool.lock;
    pool.helpers <- [||];
    pool.joined <- true;
    Condition.broadcast pool.stopped;
    Mutex.unlock pool.lock
  end
  else begin
    while not pool.joined do
      Condition.wait pool.stopped pool.lock
    done;
    Mutex.unlock pool.lock
  end

let run pool ?participants step =
  let participants =
    max 1 (min pool.width (Option.value ~default:pool.width participants))
  in
  let w = { step; participants; failure = None } in
  Mutex.lock pool.lock;
  if pool.stopping then begin
    Mutex.unlock pool.lock;
    invalid_arg "Pool.run: pool is shut down"
  end;
  (* one participant posts nothing: the caller's loop is the whole run *)
  if participants > 1 then begin
    pool.current <- Some w;
    pool.generation <- pool.generation + 1;
    pool.active <- participants - 1;
    Condition.broadcast pool.wake
  end;
  Mutex.unlock pool.lock;
  (* the submitting domain is participant 0 *)
  participate pool w 0;
  Mutex.lock pool.lock;
  while pool.active > 0 do
    Condition.wait pool.finished pool.lock
  done;
  pool.current <- None;
  Mutex.unlock pool.lock;
  Option.iter raise w.failure

let with_pool ?workers f =
  let pool = create ?workers () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
