(** The power/thermal activity plug-in (paper §III-B, §III-F): every
    [interval] cluster cycles it turns the activity counters into power
    ({!Power.sample}), integrates the HotSpot-substitute {!Thermal} model
    over the window, and hands the reading to a caller hook.  The
    governor, [xmtsim --power-interval] and the thermal bench are all
    built on it.

    With a [stream], every sample also feeds one [window.close] rollup
    named ["sim." ^ name]: [temp_k], [power_watts] and whatever keys the
    hook returns. *)

type t

(** [attach ~name ~interval m hook] registers the plug-in under [name];
    after each sample it calls [hook s cycle], whose result is extra
    rollup keys ([[]] for none).  The thermal grid is
    [sqrt num_clusters] wide. *)
val attach :
  ?power_params:Power.params ->
  ?thermal_params:Thermal.params ->
  ?stream:Obs.Stream.t ->
  name:string ->
  interval:int ->
  Machine.t ->
  (t -> int -> (string * float) list) ->
  t

val thermal : t -> Thermal.t
val samples : t -> int

(** Hottest component temperature (K) and chip power (W) of the last
    sample. *)
val temperature : t -> float

val watts : t -> float

(** Hottest component temperature over all samples (K). *)
val peak_temperature : t -> float

(** Mean chip power over all samples, summed oldest first (W). *)
val mean_watts : t -> float

(** Flush the trailing partial rollup window (no-op without a stream). *)
val close_window : t -> unit

(** {!Power.export} and {!Thermal.export} of the last sample. *)
val export : t -> Obs.Metrics.t -> unit
