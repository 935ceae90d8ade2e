(** Tests for the cycle-accounting profiler: CPI-stack exactness, the
    compiler debug-map chain ([xmtcc -g] -> [.loc] -> image source map)
    and source-level attribution. *)

module P = Xmtsim.Profile

let vecadd_src =
  {|
int A[64];
int B[64];
int C[64];
int main() {
  int i;
  for (i = 0; i < 64; i++) A[i] = i;
  for (i = 0; i < 64; i++) B[i] = 2 * i;
  spawn (0, 63) {
    C[$] = A[$] + B[$];
  }
  print_int(C[10]);
  return 0;
}
|}

let ps_src =
  {|
int sum;
int main() {
  sum = 0;
  spawn (0, 63) {
    int x;
    x = 1;
    ps(x, sum);
  }
  print_int(sum);
  return 0;
}
|}

let run_profiled ?(config = Xmtsim.Config.tiny) src =
  let compiled = Core.Toolchain.compile src in
  let m = Xmtsim.Machine.create ~config compiled.Core.Toolchain.image in
  let p = P.attach m in
  let r = Xmtsim.Machine.run m in
  let rp = P.report p in
  (r, m, p, rp)

let tcu_stacks_exact what (rp : P.report) =
  Tu.check_bool (what ^ " positive span") true (rp.P.rp_total > 0);
  Array.iteri
    (fun i row ->
      let s = Array.fold_left ( + ) 0 row.P.r_buckets in
      Tu.check_bool (Printf.sprintf "%s tcu %d idle >= 0" what i) true (row.P.r_idle >= 0);
      Tu.check_int (Printf.sprintf "%s tcu %d sums" what i) rp.P.rp_total (s + row.P.r_idle))
    rp.P.rp_tcus

(* Every per-TCU stack (buckets + idle) must sum exactly to the run's
   grid ticks, with idle never negative — the exactness contract; also
   for the README quickstart on xmtsim's default fpga64. *)
let stacks_sum_exactly () =
  let _, _, _, q = run_profiled ~config:Xmtsim.Config.fpga64 Tu.compact_c in
  tcu_stacks_exact "compact.c" q;
  let _, _, _, rp = run_profiled vecadd_src in
  tcu_stacks_exact "vecadd" rp;
  (* clusters and aggregate are consistent sums of their TCUs *)
  let n_tcus = Array.length rp.P.rp_tcus in
  Array.iteri
    (fun c row ->
      let s = Array.fold_left ( + ) 0 row.P.r_buckets + row.P.r_idle in
      Tu.check_bool (Printf.sprintf "cluster %d multiple" c) true
        (s mod max 1 rp.P.rp_total = 0))
    rp.P.rp_clusters;
  let agg =
    Array.fold_left ( + ) 0 rp.P.rp_aggregate.P.r_buckets
    + rp.P.rp_aggregate.P.r_idle
  in
  Tu.check_int "aggregate covers TCUs + master" ((n_tcus + 1) * rp.P.rp_total) agg;
  (* the parallel kernel did real work in the memory buckets *)
  let b name =
    rp.P.rp_aggregate.P.r_buckets.(P.bucket_index name)
  in
  Tu.check_bool "compute cycles counted" true (b P.Compute > 0);
  Tu.check_bool "memory-system cycles counted" true
    (b P.Icn + b P.Cache_hit + b P.Dram + b P.Prefetch_covered > 0);
  Tu.check_bool "spawn overhead counted" true (b P.Spawn_join > 0)

(* ps-heavy kernel: serialization shows up in the fence/ps bucket *)
let ps_serialization_counted () =
  let r, _, _, rp = run_profiled ps_src in
  Tu.check_string "output" "64" r.Xmtsim.Machine.output;
  Tu.check_bool "fence/ps cycles counted" true
    (rp.P.rp_aggregate.P.r_buckets.(P.bucket_index P.Fence_ps) > 0)

(* xmtcc -g markers survive the whole pipeline into the image map, and
   at least 95% of non-idle cycles land on a concrete source location
   (also for the README quickstart on fpga64). *)
let source_attribution () =
  let _, _, _, q = run_profiled ~config:Xmtsim.Config.fpga64 Tu.compact_c in
  Tu.check_bool "compact.c at least 95% attributed" true (P.attribution_rate q >= 0.95);
  let _, _, _, rp = run_profiled vecadd_src in
  Tu.check_bool "image has debug info" true rp.P.rp_has_debug;
  Tu.check_bool "at least 95% attributed" true (P.attribution_rate rp >= 0.95);
  (* the spawn body dominates; it was outlined, and the map survives the
     outlining (the hottest attributed function is the outlined body) *)
  (match rp.P.rp_attr.P.a_by_func with
  | (fn, _) :: _ ->
    Tu.check_bool "hot function is the outlined spawn body" true
      (String.length fn >= 6 && String.sub fn 0 6 = "__outl")
  | [] -> Alcotest.fail "no attributed functions");
  Tu.check_bool "some line-level rows" true (rp.P.rp_attr.P.a_by_line <> []);
  Tu.check_bool "attribution never exceeds non-idle" true
    (rp.P.rp_attr.P.a_attributed <= rp.P.rp_attr.P.a_nonidle)

(* An image resolved from loc-free assembly reports no debug info and
   renders the hint instead of an empty table. *)
let no_debug_info_path () =
  let compiled = Core.Toolchain.compile vecadd_src in
  let stripped =
    Isa.Asm.print
      (Isa.Program.strip_locs compiled.Core.Toolchain.cc.Compiler.Driver.program)
  in
  let img = Isa.Program.resolve (Isa.Asm.parse stripped) in
  let m = Xmtsim.Machine.create ~config:Xmtsim.Config.tiny img in
  let p = P.attach m in
  ignore (Xmtsim.Machine.run m);
  let rp = P.report p in
  Tu.check_bool "no debug info" true (not rp.P.rp_has_debug);
  let txt = P.render rp in
  Tu.check_bool "render hints at -g" true
    (let needle = "xmtcc -g" in
     let n = String.length txt and k = String.length needle in
     let rec scan i = i + k <= n && (String.sub txt i k = needle || scan (i + 1)) in
     scan 0)

(* xmt.profile.v1 export: schema tag, bucket sums and attribution rate
   survive a JSON round-trip. *)
let profile_json_roundtrip () =
  let _, _, _, rp = run_profiled vecadd_src in
  let j = Obs.Json.of_string (Obs.Json.to_string (P.to_json rp)) in
  Tu.check_bool "schema" true
    (Obs.Json.member "schema" j = Some (Obs.Json.Str "xmt.profile.v1"));
  Tu.check_bool "total ticks" true
    (Obs.Json.member "total_ticks" j = Some (Obs.Json.Int rp.P.rp_total));
  (match Obs.Json.member "aggregate" j with
  | Some (Obs.Json.Obj fields) ->
    let v k = match List.assoc_opt k fields with Some (Obs.Json.Int n) -> n | _ -> -1 in
    Array.iteri
      (fun i name ->
        Tu.check_int ("aggregate " ^ name) rp.P.rp_aggregate.P.r_buckets.(i)
          (v name))
      P.bucket_names;
    Tu.check_int "aggregate idle" rp.P.rp_aggregate.P.r_idle (v "idle")
  | _ -> Alcotest.fail "no aggregate object");
  match Obs.Json.member "attribution" j with
  | Some attr ->
    Tu.check_bool "has_debug_info" true
      (Obs.Json.member "has_debug_info" attr = Some (Obs.Json.Bool true))
  | None -> Alcotest.fail "no attribution object"

(* .loc assembly round-trip: print-with-locs -> parse preserves markers *)
let loc_asm_roundtrip () =
  let compiled = Core.Toolchain.compile vecadd_src in
  let prog = compiled.Core.Toolchain.cc.Compiler.Driver.program in
  let count p =
    List.length
      (List.filter
         (function Isa.Program.Loc _ -> true | _ -> false)
         p.Isa.Program.text)
  in
  let n = count prog in
  Tu.check_bool "program carries locs" true (n > 0);
  let reparsed = Isa.Asm.parse (Isa.Asm.print prog) in
  Tu.check_int "locs survive print/parse" n (count reparsed);
  Tu.check_int "strip removes all" 0 (count (Isa.Program.strip_locs prog));
  (* the image's pc-indexed map is populated and in range *)
  let img = Isa.Program.resolve prog in
  Tu.check_int "map covers every pc"
    (Array.length img.Isa.Program.instrs)
    (Array.length img.Isa.Program.locs);
  Tu.check_bool "some pcs attributed" true
    (Array.exists Option.is_some img.Isa.Program.locs)

(* The toolchain/campaign surface: run_cycle ~profile fills run.profile,
   and the campaign report embeds per-job and merged profiles. *)
let toolchain_and_campaign_surface () =
  let compiled = Core.Toolchain.compile vecadd_src in
  let r =
    Core.Toolchain.run_cycle ~config:Xmtsim.Config.tiny ~profile:true compiled
  in
  Tu.check_bool "run.profile filled" true (r.Core.Toolchain.profile <> None);
  let r0 = Core.Toolchain.run_cycle ~config:Xmtsim.Config.tiny compiled in
  Tu.check_bool "unprofiled run has none" true (r0.Core.Toolchain.profile = None);
  let job =
    Core.Toolchain.job ~name:"p" ~config:Xmtsim.Config.tiny ~profile:true
      vecadd_src
  in
  let results = Campaign.run ~jobs:1 [ ("p", job); ("q", job) ] in
  (match Campaign.merged_profile_json results with
  | Some j ->
    Tu.check_bool "merged schema" true
      (Obs.Json.member "schema" j = Some (Obs.Json.Str "xmt.profile.v1"));
    Tu.check_bool "merged job count" true
      (Obs.Json.member "merged_jobs" j = Some (Obs.Json.Int 2))
  | None -> Alcotest.fail "no merged profile");
  match Obs.Json.member "profile" (Campaign.report_to_json ~host:false results) with
  | Some _ -> ()
  | None -> Alcotest.fail "campaign report lacks merged profile"

(* The interval profiler (one event source, two views): its windowed
   compute/memwait deltas sum to the CPI stack's totals. *)
let interval_view_consistent () =
  let compiled = Core.Toolchain.compile vecadd_src in
  let m =
    Xmtsim.Machine.create ~config:Xmtsim.Config.tiny
      compiled.Core.Toolchain.image
  in
  let p = P.attach m in
  let pl = Xmtsim.Plugin.attach_profiler ~profile:p ~interval:50 m in
  ignore (Xmtsim.Machine.run m);
  let samples = Xmtsim.Plugin.samples_in_order pl in
  Tu.check_bool "samples collected" true (List.length samples >= 2);
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 samples in
  (* windows partition the counters, so the deltas telescope; the last
     partial window may be missing, so the sums are lower bounds *)
  Tu.check_bool "compute view consistent" true
    (sum (fun s -> s.Xmtsim.Plugin.ps_compute)
     <= P.compute_cycles p - P.mem_ops p);
  Tu.check_bool "memwait view consistent" true
    (sum (fun s -> s.Xmtsim.Plugin.ps_memwait) <= P.memwait_cycles p);
  Tu.check_bool "memory ops view consistent" true
    (sum (fun s -> s.Xmtsim.Plugin.ps_memory) <= P.mem_ops p);
  Tu.check_bool "windows nonnegative" true
    (List.for_all
       (fun s ->
         s.Xmtsim.Plugin.ps_compute >= 0
         && s.Xmtsim.Plugin.ps_memory >= 0
         && s.Xmtsim.Plugin.ps_memwait >= 0)
       samples)

(* A run cut off inside a spawn, while TCUs wait on memory, fences and
   prefix-sums, reports those open waits: the report and the interval
   samples are pinned by MD5 digest, recorded when every waiting tick
   was counted as it passed.  A second report adds nothing. *)
let cut_off_mid_wait () =
  let compile ?(arrays = []) src =
    (Core.Toolchain.compile ~memmap:(Isa.Memmap.of_ints arrays) src).Core.Toolchain.image
  in
  let sparse = Core.Workloads.sparse_array ~seed:8 ~n:256 ~density:50 in
  List.iter
    (fun (name, image, cut, waits, report_md5, samples_md5) ->
      let m = Xmtsim.Machine.create ~config:Xmtsim.Config.fpga64 image in
      (* each TCU's open wait, from the waits heard and the events that end them *)
      let cfg = Xmtsim.Machine.config m in
      let open_wait = Array.make Xmtsim.Config.(cfg.num_clusters * cfg.tcus_per_cluster) None in
      let ends w ~tcu = if open_wait.(tcu) = Some w then open_wait.(tcu) <- None in
      ignore
        (Xmtsim.Machine.attach m
           { Xmtsim.Probe.nop with
             wait = (fun ~tcu w -> if w <> Xmtsim.Probe.Fu then open_wait.(tcu) <- Some w);
             woken = (fun ~tcu ~pref:_ _ -> ends Xmtsim.Probe.Mem ~tcu);
             release = ends Xmtsim.Probe.Fence;
             sync = (fun ~tcu -> if tcu >= 0 then ends Xmtsim.Probe.Ps ~tcu) }
          : unit -> unit);
      let p = P.attach m in
      let pl = Xmtsim.Plugin.attach_profiler ~profile:p ~interval:25 m in
      let r = Xmtsim.Machine.run ~max_cycles:cut m in
      Tu.check_bool (name ^ " cut off") false r.Xmtsim.Machine.halted;
      List.iter
        (fun w ->
          Tu.check_bool
            (Printf.sprintf "%s TCUs wait on %s at the cut" name
               (match w with Xmtsim.Probe.Mem -> "memory" | Ps -> "a prefix-sum" | _ -> "a fence"))
            true
            (Array.mem (Some w) open_wait))
        waits;
      let md5 j = Digest.to_hex (Digest.string (Obs.Json.to_string j)) in
      let report = md5 (P.to_json (P.report p)) in
      Tu.check_string (name ^ " report") report_md5 report;
      Tu.check_string (name ^ " samples") samples_md5 (md5 (Xmtsim.Plugin.profile_to_json pl));
      Tu.check_string (name ^ " second report") report (md5 (P.to_json (P.report p))))
    Xmtsim.Probe.
      [
        ( "publication",
          compile (Core.Kernels.publication ~n:64),
          124,
          [ Mem; Fence ],
          "cf994ffb16c1f6a78092bcf8c3703e10",
          "c9a5b6563a2f2556e30e5db26f04de07" );
        ( "compaction",
          compile ~arrays:[ ("A", sparse) ] (Core.Kernels.compaction ~n:256),
          133,
          [ Mem; Ps; Fence ],
          "1eef65205fb4c4b5b2b7c148afed19cb",
          "aa72e6501c86da0ef038fd8f154c278f" );
      ]

let () =
  Alcotest.run "profile"
    [
      ( "cpi stacks",
        [
          Tu.tc "per-TCU sums exact" stacks_sum_exactly;
          Tu.tc "ps serialization counted" ps_serialization_counted;
          Tu.tc "run cut off mid-wait" cut_off_mid_wait;
        ] );
      ( "attribution",
        [
          Tu.tc "source attribution >= 95%" source_attribution;
          Tu.tc "no-debug-info path" no_debug_info_path;
          Tu.tc "loc asm roundtrip" loc_asm_roundtrip;
        ] );
      ( "surfaces",
        [
          Tu.tc "xmt.profile.v1 json" profile_json_roundtrip;
          Tu.tc "toolchain + campaign" toolchain_and_campaign_surface;
          Tu.tc "interval view consistent" interval_view_consistent;
        ] );
    ]
