(* The §III-F power/thermal activity plug-in — see sampler.mli. *)

type t = {
  power : Power.t;
  thermal : Thermal.t;
  mutable samples : int;
  mutable peak : float;
  mutable power_sum : float;  (** summed oldest first *)
  window : Obs.Stream.rollup option;
}

let thermal s = s.thermal
let temperature s = Thermal.max_temperature s.thermal
let watts s = Power.total s.power
let samples s = s.samples
let peak_temperature s = s.peak
let mean_watts s = s.power_sum /. float_of_int (max 1 s.samples)

let attach ?power_params ?thermal_params ?stream ~name ~interval m on_sample =
  let cfg = Machine.config m in
  let power = Power.create ?params:power_params m in
  let grid_w = max 1 (int_of_float (sqrt (float_of_int cfg.Config.num_clusters))) in
  let thermal =
    Thermal.create ?params:thermal_params ~grid_w (Power.component_names power)
  in
  let s =
    {
      power;
      thermal;
      samples = 0;
      peak = neg_infinity;
      power_sum = 0.0;
      window = Option.map (fun st -> Obs.Stream.rollup st ("sim." ^ name)) stream;
    }
  in
  let dt = float_of_int interval *. 1e-9 in
  Machine.add_activity_plugin m ~interval (fun m cycle ->
      Thermal.step thermal ~dt (Power.sample power);
      let temp = temperature s and w = watts s in
      s.samples <- s.samples + 1;
      s.peak <- Float.max s.peak temp;
      s.power_sum <- s.power_sum +. w;
      let extra = on_sample s cycle in
      Option.iter
        (fun r ->
          Obs.Stream.observe r ~t:(Machine.cycles m)
            (("temp_k", temp) :: ("power_watts", w) :: extra))
        s.window);
  s

let close_window s = Option.iter Obs.Stream.close_rollup s.window

let export s reg =
  Power.export s.power reg;
  Thermal.export s.thermal reg
