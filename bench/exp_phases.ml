(** §III-F — phase sampling (roadmap feature; ref [38] SimPoint).

    Estimates a long program's cycle count by cycle-simulating one
    interval per detected phase and fast-forwarding functionally in
    between.  Reproduction targets: the estimate lands near the full
    cycle-accurate count while cycle-simulating a small fraction of the
    instructions. *)

open Bench_util

let program =
  {|
int A[8192];
int B[8192];
int main(void) {
  int round;
  for (round = 0; round < 24; round++) {
    spawn(0, 2047) {
      int x = A[$] + 1;
      int k;
      for (k = 0; k < 8; k++) x = (x * 3 + 1) & 65535;
      B[$] = x;
    }
    spawn(0, 2047) {
      B[$ * 4] = A[($ * 4 + 97) & 8191] + B[($ * 4) & 8191];
    }
  }
  print_int(B[0]);
  return 0;
}
|}

let run () =
  section "\xc2\xa7III-F: phase sampling (cycle-simulate one interval per phase)";
  let compiled = compile program in
  let img = compiled.Core.Toolchain.image in
  let full, t_full =
    wall (fun () -> Core.Toolchain.run_cycle ~config:Xmtsim.Config.fpga64 compiled)
  in
  let est, t_est =
    wall (fun () ->
        Xmtsim.Phase_sampling.estimate ~config:Xmtsim.Config.fpga64
          ~interval:20_000 img)
  in
  let open Xmtsim.Phase_sampling in
  Printf.printf "%-34s %14s %12s\n" "" "cycles" "host time";
  Printf.printf "%-34s %14s %11.2fs\n" "full cycle-accurate run"
    (commas full.Core.Toolchain.cycles) t_full;
  Printf.printf "%-34s %14s %11.2fs\n" "phase-sampled estimate"
    (commas est.estimated_cycles) t_est;
  let err =
    100.0
    *. abs_float
         (float_of_int est.estimated_cycles -. float_of_int full.Core.Toolchain.cycles)
    /. float_of_int full.Core.Toolchain.cycles
  in
  Printf.printf
    "\nintervals %d, phases %d (one interval of each cycle-simulated)\n\
     instructions cycle-simulated: %s of %s (%.1f%%)\n"
    est.intervals est.phases
    (commas est.sampled_instructions)
    (commas est.total_instructions)
    (100.0 *. float_of_int est.sampled_instructions
    /. float_of_int est.total_instructions);
  check (err < 20.0) "estimate error: %.1f%% (under 20%%)" err
