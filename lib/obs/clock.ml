(** Monotonic host clock.

    [Unix.gettimeofday] is wall-clock time: NTP slews and host clock
    steps move it, so intervals measured with it can jump or even go
    negative.  Every duration the toolchain reports (per-job and
    campaign wall time, compiler pass timings, [--stats] host
    throughput, stream [t] and host trace timestamps, bench timings)
    goes through this module instead, which reads
    [clock_gettime(CLOCK_MONOTONIC)] via bechamel's allocation-free
    stub; CI fails on any other [Unix.gettimeofday] read.  The JSON field names stay ["wall_seconds"]
    etc. — only the clock behind them changes. *)

(* nanoseconds from an arbitrary (but fixed) origin; never decreases *)
let now_ns () : int64 = Monotonic_clock.now ()

(** Seconds from the clock's arbitrary origin — only differences are
    meaningful. *)
let now () = Int64.to_float (now_ns ()) *. 1e-9

(** Non-negative seconds elapsed since [t0] (a {!now} reading). *)
let elapsed_since t0 = Float.max 0.0 (now () -. t0)

(** [wall f] runs [f] and returns its result with the monotonic seconds
    it took. *)
let wall f =
  let t0 = now () in
  let r = f () in
  (r, elapsed_since t0)
