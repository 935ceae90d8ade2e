(** Host-side measurements: the monotonic clock, the host probe and
    [/proc] readings of peak RSS and CPU time. *)

let now = Obs.Clock.now

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(** Wall milliseconds of a fixed loop of [rounds] rounds (default
    20 000), run at the start and end of every run so a reader can tell
    host drift from a regression.  Its four independent accumulators
    keep the core's issue ports busy, so it slows, like the simulator
    does, when a neighbour shares the core. *)
let probe_ms ?(rounds = 20_000) () =
  let a = Array.init 4096 (fun i -> i) in
  let s0 = ref 0 and s1 = ref 0 and s2 = ref 0 and s3 = ref 0 in
  let t0 = now () in
  for _ = 1 to rounds do
    for i = 0 to 1023 do
      s0 := !s0 + a.(4 * i);
      s1 := !s1 lxor a.((4 * i) + 1);
      s2 := !s2 + (a.((4 * i) + 2) * 3);
      s3 := !s3 + (a.((4 * i) + 3) lsr 1)
    done
  done;
  ignore (Sys.opaque_identity (!s0 + !s1 + !s2 + !s3));
  (now () -. t0) *. 1e3

(** {2 Reference time}

    Neighbours on a shared host slow all work down together, by up to
    2x and for minutes at a time, so a host second is not the same
    length from one run to the next.  The time figures are therefore
    given in reference seconds: the time the work would take on a host
    on which the short probe loop ([probe_ms ~rounds:2000], about 5 ms)
    takes {!reference_ms}.  Every set-up is bracketed by probes, so a
    run holds one or two hundred probe readings.  The probe runs none of
    the toolchain's code, so a change to the toolchain moves a reference
    time exactly as much as the host time. *)

let reference_ms = 5.0

(* every probe reading of the run, and when the last one ended *)
let probes = ref []
let last_probe = ref neg_infinity

(* A probe that ended just now stands for one before the next unit. *)
let reference_probe () =
  if now () -. !last_probe < 2e-3 then List.hd !probes
  else begin
    let ms = probe_ms ~rounds:2000 () in
    probes := ms :: !probes;
    last_probe := now ();
    ms
  end

(** How much a set-up slows when the probe next to it does, in log-log
    terms.  The probe, all issue-port work in the L1 cache, feels a
    neighbour on its core more than the toolchain does (NOTES.md). *)
let sensitivity = 0.7

(** [probed f] is [(f (), host_secs, reference_secs)]: [f] runs between
    two probes and its host seconds are scaled by
    [(reference_ms / p) ** sensitivity], [p] the mean of the two.  For
    units as short as the probe itself (set-ups), which see the same
    moment of the host as the probes beside them. *)
let probed f =
  let before = reference_probe () in
  let r, secs = timed f in
  let after = reference_probe () in
  (r, secs, secs *. ((reference_ms *. 2.0 /. (before +. after)) ** sensitivity))

(** Reference seconds per host second for the long units of the run
    (table1 passes, sweep campaigns): [reference_ms] over the 10th
    percentile of the run's probe readings so far.  Those long units'
    times are taken at their 10th percentile or from their fastest
    third, the quiet moments of the run; the probe's 10th percentile is
    the host's speed in those moments. *)
let run_factor () = reference_ms /. Stat.quantile !probes 0.1

let read_file path = In_channel.with_open_bin path In_channel.input_all

(** Peak resident set ([VmHWM]) of a process, in MiB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(** User + system CPU milliseconds a process has used so far (clock
    ticks at the kernel's USER_HZ of 100). *)
let cpu_ms pid =
  let stat = read_file (Printf.sprintf "/proc/%s/stat" pid) in
  (* the fields after the parenthesised command name start at field 3;
     utime and stime are fields 14 and 15 *)
  let after = String.rindex stat ')' + 2 in
  let f =
    Array.of_list
      (String.split_on_char ' ' (String.sub stat after (String.length stat - after)))
  in
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) *. 10.0

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec du_bytes path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.fold_left
      (fun acc e -> acc + du_bytes (Filename.concat path e))
      0 (Sys.readdir path)
  | _ -> (Unix.lstat path).Unix.st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end
