(** Simulation plug-ins (paper §III-B).

    {e Filter plug-ins} are passive {!Probe}s that observe every executed
    instruction; the caller prints their report at the end of the
    simulation.  The built-in {!hot_locations}
    plug-in reproduces the paper's example: a list of the most frequently
    accessed shared-memory locations, which points the programmer at
    memory bottlenecks.

    {e Activity plug-ins} are registered on the machine with a sampling
    interval ({!Machine.add_activity_plugin}); they read the activity
    counters at exact cluster-clock grid ticks and may retune clock
    domains — the hook used for dynamic power and thermal management (see
    {!Power} and {!Thermal}) that keeps clock gating. *)

(** Attach [f.probe] with {!Machine.attach}; [f.report ()] renders what
    it saw. *)
type filter = { probe : Probe.t; report : unit -> string }

(** Tracks the [top] most frequently accessed memory addresses. *)
let hot_locations ~top () =
  let counts : (int, int ref) Hashtbl.t = Hashtbl.create 256 in
  let issue ~tcu:_ ~pc:_ _ins ~addr =
    if addr >= 0 then
      match Hashtbl.find_opt counts addr with
      | Some r -> incr r
      | None -> Hashtbl.replace counts addr (ref 1)
  in
  let report () =
    let all = Hashtbl.fold (fun a r acc -> (a, !r) :: acc) counts [] in
    let sorted = List.sort (fun (_, x) (_, y) -> compare y x) all in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: take (n - 1) rest
    in
    let lines =
      List.map
        (fun (a, c) -> Printf.sprintf "  0x%06x: %d accesses" a c)
        (take top sorted)
    in
    String.concat "\n" (("hot memory locations (top " ^ string_of_int top ^ "):") :: lines)
  in
  { probe = { Probe.nop with name = "hot-locations"; issue }; report }

(** Execution profile over simulated time (§III-B: "An activity plug-in
    can generate execution profiles of XMTC programs over simulated time,
    showing memory and computation intensive phases").

    Attach with {!attach_profiler}; each sample records the compute,
    memory-issue and TCU memory-wait cycles accrued since the previous
    sample.  {!render_profile} draws a text timeline where each row is
    one interval and the bar shows its mix. *)

type profile_sample = {
  ps_cycle : int;
  ps_compute : int;  (** compute-attributed cycles (issues + FU stalls) in the window *)
  ps_memory : int;  (** memory operations issued in the window *)
  ps_memwait : int;  (** memory-wait cycles (ICN/cache/DRAM buckets) in the window *)
}

type profiler = { mutable samples : profile_sample list (* reversed *) }

(** Samples are consed newest-first during the run; this accessor is the
    {e single} place that restores chronological (oldest-first) order, so
    the text renderer and the JSON export cannot disagree. *)
let samples_in_order (p : profiler) = List.rev p.samples

(** [attach_profiler m ~interval] registers an activity plug-in sampling
    the cycle-accounting profiler ([profile], or a fresh one attached to
    [m]) every [interval] cycles.  The per-cycle accounting behind the
    CPI stacks is the single event source; the timeline is merely a
    windowed view over it, so the two can never disagree about where the
    cycles went. *)
let attach_profiler ?profile ?(interval = 1000) m =
  let p = { samples = [] } in
  let prof = match profile with Some prof -> prof | None -> Profile.attach m in
  let last_c = ref 0 and last_m = ref 0 and last_w = ref 0 in
  Machine.add_activity_plugin m ~interval (fun _ cycle ->
      (* compute_cycles counts one cycle per issue (plus FU stalls), so
         subtracting the memory issues leaves the compute-attributed share *)
      let mem = Profile.mem_ops prof in
      let c = Profile.compute_cycles prof - mem in
      let w = Profile.memwait_cycles prof in
      p.samples <-
        { ps_cycle = cycle; ps_compute = c - !last_c; ps_memory = mem - !last_m;
          ps_memwait = w - !last_w }
        :: p.samples;
      last_c := c;
      last_m := mem;
      last_w := w);
  p

(** The execution profile as a JSON array of per-interval samples
    (oldest first), for machine consumption of the §III-B profile. *)
let profile_to_json (p : profiler) =
  Obs.Json.List
    (List.map
       (fun s ->
         Obs.Json.Obj
           [
             ("cycle", Obs.Json.Int s.ps_cycle);
             ("compute", Obs.Json.Int s.ps_compute);
             ("memory", Obs.Json.Int s.ps_memory);
             ("memwait", Obs.Json.Int s.ps_memwait);
           ])
       (samples_in_order p))

let render_profile (p : profiler) =
  let samples = samples_in_order p in
  let b = Buffer.create 512 in
  Buffer.add_string b
    "cycle      compute     memory    memwait  phase\n";
  List.iter
    (fun s ->
      (* classify by where the TCUs spent their time: cycles waiting on
         memory vs cycles executing instructions *)
      let total = max 1 (s.ps_compute + s.ps_memory + s.ps_memwait) in
      let frac = float_of_int s.ps_memwait /. float_of_int total in
      let width = 24 in
      let memw = int_of_float (frac *. float_of_int width) in
      let bar = String.make memw 'M' ^ String.make (width - memw) 'c' in
      let tag =
        if s.ps_compute + s.ps_memory = 0 then "idle"
        else if s.ps_memwait > s.ps_compute then "memory-intensive"
        else "compute-intensive"
      in
      Buffer.add_string b
        (Printf.sprintf "%-10d %10d %10d %10d  |%s| %s\n" s.ps_cycle s.ps_compute
           s.ps_memory s.ps_memwait bar tag))
    samples;
  Buffer.contents b
