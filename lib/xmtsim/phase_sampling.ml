type result = {
  estimated_cycles : int;
  total_instructions : int;
  intervals : int;
  phases : int;
  sampled_instructions : int;
  sampled_cycles : int;
}

exception Error of string

let buckets = 64

(* the fingerprint distance below which two intervals share a phase *)
let similarity = 0.5

(* L1 distance between normalized pc histograms; ranges over [0, 2]. *)
let distance a b =
  let ta = Array.fold_left ( + ) 0 a and tb = Array.fold_left ( + ) 0 b in
  if ta = 0 || tb = 0 then 2.0
  else begin
    let d = ref 0.0 in
    for i = 0 to buckets - 1 do
      d :=
        !d
        +. abs_float
             ((float_of_int a.(i) /. float_of_int ta)
             -. (float_of_int b.(i) /. float_of_int tb))
    done;
    !d
  end

type phase = {
  fingerprint : int array;  (* the leader interval's histogram *)
  cpi : float;  (* its measured cycles per functional instruction *)
}

(* The master instructions the cycle machine issues for what the
   functional mode has run so far: it also issues each spawn's join. *)
let master_instrs st =
  let s = Functional_mode.stats st in
  s.Stats.master_instrs + s.Stats.spawns

(* Cycle-simulate from [snap] until the master has issued [master]
   more instructions, or halts; returns the cycles. *)
let cycle_sample ~config ~image ~snap ~master =
  let m = Machine.create ~config image in
  Machine.restore m snap;
  let target = (Machine.stats m).Stats.master_instrs + master in
  let reached () = (Machine.stats m).Stats.master_instrs >= target in
  let r = Machine.run ~until:reached m in
  if not (r.Machine.halted || reached ()) then
    raise
      (Error
         (Printf.sprintf "cycle sample stopped after %d cycles, short of its end"
            r.Machine.cycles));
  r.Machine.cycles

let estimate ?(config = Config.fpga64) ?(interval = 20_000) image =
  if interval < 1 then
    invalid_arg
      (Printf.sprintf "Phase_sampling.estimate: interval must be >= 1, got %d"
         interval);
  let st = Functional_mode.init image in
  let pcs = max 1 (Array.length image.Isa.Program.instrs) in
  let phases = ref [] in
  let intervals = ref 0 in
  let sampled_instructions = ref 0 in
  let sampled_cycles = ref 0 in
  let unmeasured = ref 0.0 in
  let rec go () =
    let hist = Array.make buckets 0 in
    let snap = Functional_mode.snapshot st in
    let before = Functional_mode.instructions st in
    let master_before = master_instrs st in
    let status =
      Functional_mode.advance st ~budget:interval ~on_instr:(fun ~pc ->
          let b = min (buckets - 1) (max 0 (pc * buckets / pcs)) in
          hist.(b) <- hist.(b) + 1)
    in
    let ran = Functional_mode.instructions st - before in
    if ran > 0 then begin
      incr intervals;
      match
        List.find_opt (fun p -> distance p.fingerprint hist < similarity) !phases
      with
      | Some p -> unmeasured := !unmeasured +. (float_of_int ran *. p.cpi)
      | None ->
        let cycles =
          cycle_sample ~config ~image ~snap
            ~master:(master_instrs st - master_before)
        in
        phases :=
          { fingerprint = hist; cpi = float_of_int cycles /. float_of_int ran }
          :: !phases;
        sampled_instructions := !sampled_instructions + ran;
        sampled_cycles := !sampled_cycles + cycles
    end;
    if status = `Paused then go ()
  in
  go ();
  {
    estimated_cycles = !sampled_cycles + int_of_float (Float.round !unmeasured);
    total_instructions = Functional_mode.instructions st;
    intervals = !intervals;
    phases = List.length !phases;
    sampled_instructions = !sampled_instructions;
    sampled_cycles = !sampled_cycles;
  }
