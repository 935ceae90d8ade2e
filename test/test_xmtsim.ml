(** Tests for the cycle-accurate simulator and its components (§III). *)

module M = Xmtsim.Machine
module C = Xmtsim.Config

(* ------------------------------------------------------------------ *)
(* Tags *)

let tags_basic () =
  let t = Xmtsim.Tags.create ~lines:4 ~assoc:2 ~line_words:4 in
  Tu.check_bool "cold miss" false (Xmtsim.Tags.lookup t 0x1000);
  Xmtsim.Tags.install t 0x1000;
  Tu.check_bool "hit" true (Xmtsim.Tags.lookup t 0x1004);
  Tu.check_bool "other line misses" false (Xmtsim.Tags.lookup t 0x1010);
  Xmtsim.Tags.invalidate_all t;
  Tu.check_bool "invalidated" false (Xmtsim.Tags.lookup t 0x1000)

let tags_lru_eviction () =
  (* 2 lines, assoc 2 -> one set with two ways *)
  let t = Xmtsim.Tags.create ~lines:2 ~assoc:2 ~line_words:1 in
  Xmtsim.Tags.install t 0;
  Xmtsim.Tags.install t 4;
  ignore (Xmtsim.Tags.lookup t 0);
  (* touch line 0 *)
  Xmtsim.Tags.install t 8;
  (* should evict line 4 (LRU) *)
  Tu.check_bool "line 0 kept" true (Xmtsim.Tags.lookup t 0);
  Tu.check_bool "line 4 evicted" false (Xmtsim.Tags.lookup t 4);
  Tu.check_bool "line 8 present" true (Xmtsim.Tags.lookup t 8)

let tags_zero_size () =
  let t = Xmtsim.Tags.create ~lines:0 ~assoc:2 ~line_words:4 in
  Xmtsim.Tags.install t 0x1000;
  Tu.check_bool "never hits" false (Xmtsim.Tags.lookup t 0x1000);
  Tu.check_bool "hits impossible" false (Xmtsim.Tags.hits_possible t)

(* ------------------------------------------------------------------ *)
(* Prefetch buffer *)

let pbuf_fill_and_hit () =
  let b = Xmtsim.Prefetch_buffer.create ~size:2 ~policy:C.Fifo in
  Tu.check_bool "start" true (Xmtsim.Prefetch_buffer.start b 100);
  Tu.check_bool "no duplicate request" false (Xmtsim.Prefetch_buffer.start b 100);
  (match Xmtsim.Prefetch_buffer.lookup b 100 with
  | Xmtsim.Prefetch_buffer.In_flight -> ()
  | _ -> Alcotest.fail "expected in-flight");
  ignore (Xmtsim.Prefetch_buffer.fill b 100 (Isa.Value.int 7));
  match Xmtsim.Prefetch_buffer.lookup b 100 with
  | Xmtsim.Prefetch_buffer.Hit v -> Tu.check_int "value" 7 (Isa.Value.to_int v)
  | _ -> Alcotest.fail "expected hit"

let pbuf_fifo_eviction () =
  let b = Xmtsim.Prefetch_buffer.create ~size:2 ~policy:C.Fifo in
  ignore (Xmtsim.Prefetch_buffer.start b 1);
  ignore (Xmtsim.Prefetch_buffer.start b 2);
  ignore (Xmtsim.Prefetch_buffer.fill b 1 (Isa.Value.int 1));
  ignore (Xmtsim.Prefetch_buffer.fill b 2 (Isa.Value.int 2));
  (* touch 1 (FIFO ignores it) then insert 3 -> evicts 1 *)
  ignore (Xmtsim.Prefetch_buffer.lookup b 1);
  ignore (Xmtsim.Prefetch_buffer.start b 3);
  Tu.check_bool "1 evicted (fifo)" true
    (Xmtsim.Prefetch_buffer.lookup b 1 = Xmtsim.Prefetch_buffer.Miss);
  Tu.check_int "evictions" 1 (Xmtsim.Prefetch_buffer.evictions b)

let pbuf_lru_eviction () =
  let b = Xmtsim.Prefetch_buffer.create ~size:2 ~policy:C.Lru in
  ignore (Xmtsim.Prefetch_buffer.start b 1);
  ignore (Xmtsim.Prefetch_buffer.start b 2);
  ignore (Xmtsim.Prefetch_buffer.fill b 1 (Isa.Value.int 1));
  ignore (Xmtsim.Prefetch_buffer.fill b 2 (Isa.Value.int 2));
  ignore (Xmtsim.Prefetch_buffer.lookup b 1);
  (* LRU protects 1 *)
  ignore (Xmtsim.Prefetch_buffer.start b 3);
  Tu.check_bool "2 evicted (lru)" true
    (Xmtsim.Prefetch_buffer.lookup b 2 = Xmtsim.Prefetch_buffer.Miss);
  Tu.check_bool "1 kept (lru)" true
    (Xmtsim.Prefetch_buffer.lookup b 1 <> Xmtsim.Prefetch_buffer.Miss)

let pbuf_waiter () =
  let b = Xmtsim.Prefetch_buffer.create ~size:2 ~policy:C.Fifo in
  ignore (Xmtsim.Prefetch_buffer.start b 8);
  Xmtsim.Prefetch_buffer.wait_on b 8 5;
  match Xmtsim.Prefetch_buffer.fill b 8 (Isa.Value.int 3) with
  | Some 5 -> ()
  | _ -> Alcotest.fail "expected waiter"

let pbuf_size_zero () =
  let b = Xmtsim.Prefetch_buffer.create ~size:0 ~policy:C.Fifo in
  Tu.check_bool "no buffering" false (Xmtsim.Prefetch_buffer.start b 1)

(* ------------------------------------------------------------------ *)
(* Mem *)

let mem_image () =
  let img =
    Isa.Program.resolve (Isa.Asm.parse "main: halt\n.data\nA: .word 11, 22")
  in
  let m = Xmtsim.Mem.load img in
  let base = Isa.Program.data_base_addr in
  Tu.check_int "init" 22 (Isa.Value.to_int (Xmtsim.Mem.read m (base + 4)));
  Xmtsim.Mem.write m (base + 8) (Isa.Value.int 7);
  Tu.check_int "write/read" 7 (Isa.Value.to_int (Xmtsim.Mem.read m (base + 8)));
  Tu.check_int "fetch_add old" 11 (Xmtsim.Mem.fetch_add m base 5);
  Tu.check_int "fetch_add new" 16 (Isa.Value.to_int (Xmtsim.Mem.read m base))

let mem_stack_region () =
  let img = Isa.Program.resolve (Isa.Asm.parse "main: halt") in
  let m = Xmtsim.Mem.load img in
  let sp = Xmtsim.Mem.stack_top - 4 in
  Xmtsim.Mem.write m sp (Isa.Value.int 99);
  Tu.check_int "stack rw" 99 (Isa.Value.to_int (Xmtsim.Mem.read m sp));
  (* the stack grows on demand: untouched slots read zero at any depth *)
  let get a = Isa.Value.to_int (Xmtsim.Mem.read m a) in
  let low = Xmtsim.Mem.stack_top - Xmtsim.Mem.stack_bytes in
  Tu.check_int "deepest slot untouched" 0 (get low);
  Xmtsim.Mem.write m low (Isa.Value.int 5);
  Tu.check_int "deepest slot" 5 (get low);
  Tu.check_int "top slot kept" 99 (get sp);
  Tu.check_int "slot between untouched" 0 (get (sp - 4096))

let mem_faults () =
  let img = Isa.Program.resolve (Isa.Asm.parse "main: halt") in
  let m = Xmtsim.Mem.load img in
  (match Xmtsim.Mem.read m 3 with
  | exception Xmtsim.Mem.Fault _ -> ()
  | _ -> Alcotest.fail "expected unaligned fault");
  match Xmtsim.Mem.read m 0 with
  | exception Xmtsim.Mem.Fault _ -> ()
  | _ -> Alcotest.fail "expected unmapped fault"

(* ------------------------------------------------------------------ *)
(* Machine on handwritten assembly *)

let asm_arith () =
  let r, _ =
    Tu.run_asm
      {|
main:
  li $t0, 6
  li $t1, 7
  mul $t2, $t0, $t1
  addi $t2, $t2, -2
  pint $t2
  halt
|}
  in
  Tu.check_string "6*7-2" "40" r.M.output

let asm_float () =
  let r, _ =
    Tu.run_asm
      {|
main:
  li.s $f1, 2.0
  li.s $f2, 0.25
  add.s $f3, $f1, $f2
  sqrt.s $f4, $f3
  pflt $f4
  halt
|}
  in
  Tu.check_string "sqrt(2.25)" "1.5" r.M.output

let asm_branches () =
  let r, _ =
    Tu.run_asm
      {|
main:
  li $t0, 0
  li $t1, 0
Lloop:
  addi $t0, $t0, 1
  add $t1, $t1, $t0
  slti $t2, $t0, 10
  bnez $t2, Lloop
  pint $t1
  halt
|}
  in
  Tu.check_string "sum 1..10" "55" r.M.output

let asm_memory () =
  let r, _ =
    Tu.run_asm
      {|
main:
  la $t0, A
  lw $t1, 0($t0)
  lw $t2, 4($t0)
  add $t3, $t1, $t2
  sw $t3, 8($t0)
  lw $t4, 8($t0)
  pint $t4
  halt
  .data
A: .word 30, 12, 0
|}
  in
  Tu.check_string "load/store" "42" r.M.output

let asm_spawn_join () =
  (* each virtual thread writes id+1 into A[id]; master sums after join *)
  let r, m =
    Tu.run_asm
      (Tu.spawn_asm
         {|
  la $t3, A
  sll $t4, $t2, 2
  add $t3, $t3, $t4
  addi $t5, $t2, 1
  sw.nb $t5, 0($t3)
|})
  in
  Tu.check_string "sum of ids+1" "36" r.M.output;
  Tu.check_int "8 virtual threads" 8 (M.stats m).Xmtsim.Stats.virtual_threads;
  Tu.check_int "one spawn" 1 (M.stats m).Xmtsim.Stats.spawns

let asm_ps_distributes_ids () =
  (* ps on a user base: each thread adds 1, master reads final count *)
  let r, _ =
    Tu.run_asm
      {|
main:
  li $at, 5
  mtg $g0, $at
  li $t0, 0
  li $t1, 9
  spawn $t0, $t1
Ld:
  li $t2, 1
  ps $t2, $g8
  chkid $t2
  li $t3, 1
  ps $t3, $g0
  j Ld
  join
  mfg $t4, $g0
  pint $t4
  halt
|}
  in
  Tu.check_string "5 + 10 increments" "15" r.M.output

let asm_ps_requires_unit_increment () =
  let asm =
    {|
main:
  li $t0, 0
  li $t1, 1
  spawn $t0, $t1
Ld:
  li $t2, 1
  ps $t2, $g8
  chkid $t2
  li $t3, 2
  ps $t3, $g0
  j Ld
  join
  halt
|}
  in
  match Tu.run_asm asm with
  | exception M.Sim_error msg ->
    Tu.check_bool "mentions 0 or 1" true
      (let re = "0 or 1" in
       let rec find i =
         if i + String.length re > String.length msg then false
         else if String.sub msg i (String.length re) = re then true
         else find (i + 1)
       in
       find 0)
  | _ -> Alcotest.fail "expected ps increment error"

let asm_psm_atomicity () =
  (* 8 threads psm +3 on one location; result must be exactly 24 *)
  let r, m =
    Tu.run_asm
      {|
main:
  li $t0, 0
  li $t1, 7
  spawn $t0, $t1
Ld:
  li $t2, 1
  ps $t2, $g8
  chkid $t2
  li $t3, 3
  la $t4, X
  psm $t3, 0($t4)
  j Ld
  join
  la $t0, X
  lw $t1, 0($t0)
  pint $t1
  halt
  .data
X: .word 0
|}
  in
  Tu.check_string "atomic sum" "24" r.M.output;
  Tu.check_int "psm count" 8 (M.stats m).Xmtsim.Stats.psm_ops

let asm_region_violation () =
  (* a branch out of the spawn region must trip the broadcast check *)
  let asm =
    {|
main:
  li $t0, 0
  li $t1, 3
  spawn $t0, $t1
Ld:
  li $t2, 1
  ps $t2, $g8
  chkid $t2
  j Outside
  j Ld
  join
  halt
Outside:
  j Ld
|}
  in
  match Tu.run_asm asm with
  | exception M.Sim_error _ -> ()
  | _ -> Alcotest.fail "expected broadcast region violation"

let asm_lwro_uses_rocache () =
  let r, m =
    Tu.run_asm
      (Tu.spawn_asm
         {|
  la $t3, K
  lw.ro $t4, 0($t3)
  la $t5, A
  sll $t6, $t2, 2
  add $t5, $t5, $t6
  sw.nb $t4, 0($t5)
|}
      ^ "\nK: .word 2\n")
  in
  Tu.check_string "8 * K" "16" r.M.output;
  let s = M.stats m in
  Tu.check_bool "rocache hits" true (s.Xmtsim.Stats.rocache_hits > 0)

let functional_equals_cycle () =
  let f = Tu.run_asm_functional Tu.squares_asm in
  let r, _ = Tu.run_asm Tu.squares_asm in
  Tu.check_string "same output" f.Xmtsim.Functional_mode.output r.M.output

let functional_much_faster () =
  (* functional mode executes the same instructions with no cycle model *)
  let asm = Tu.spawn_asm {|
  la $t3, A
  sll $t4, $t2, 2
  add $t3, $t3, $t4
  sw.nb $t2, 0($t3)
|} in
  let f = Tu.run_asm_functional asm in
  let r, m = Tu.run_asm asm in
  (* the cycle model runs a terminating ps+chkid dispatch round on every
     TCU, while the serializing functional mode runs exactly one *)
  let tcus = Xmtsim.Config.num_tcus C.tiny in
  Tu.check_bool "instruction counts close" true
    (abs (f.Xmtsim.Functional_mode.instructions
          - Xmtsim.Stats.total_instrs (M.stats m))
     <= (3 * tcus) + 2);
  Tu.check_bool "cycle mode took cycles" true (r.M.cycles > 50)

(* ------------------------------------------------------------------ *)
(* Timing behaviour *)

let more_tcus_faster () =
  let src = Core.Kernels.vecadd ~n:256 in
  let compiled = Core.Toolchain.compile src in
  let cycles cfg =
    (Core.Toolchain.run_cycle ~config:cfg compiled).Core.Toolchain.cycles
  in
  let c4 = cycles C.tiny in
  let c64 = cycles C.fpga64 in
  Tu.check_bool
    (Printf.sprintf "64 TCUs (%d) beat 4 TCUs (%d)" c64 c4)
    true (c64 * 2 < c4)

let dvfs_slows_execution () =
  let src = Core.Kernels.vecadd ~n:64 in
  let compiled = Core.Toolchain.compile src in
  let run period =
    let m = Core.Toolchain.machine ~config:C.tiny compiled in
    List.iter (fun d -> M.set_period m d period) [ M.Clusters; M.Icn; M.Caches; M.Dram ];
    (M.run m).M.cycles
  in
  let fast = run 1 and slow = run 4 in
  Tu.check_bool (Printf.sprintf "period 4 (%d) slower than 1 (%d)" slow fast)
    true (slow > fast * 2)

let slow_dram_hurts_memory_kernel () =
  let src = Core.Kernels.par_mem ~threads:16 ~iters:16 ~n:1024 in
  let compiled = Core.Toolchain.compile src in
  let cycles lat =
    let cfg =
      C.with_overrides C.fpga64 [ Printf.sprintf "dram_latency=%d" lat ]
    in
    (Core.Toolchain.run_cycle ~config:cfg compiled).Core.Toolchain.cycles
  in
  Tu.check_bool "dram 400 slower than 20" true (cycles 400 > cycles 20)

let prefetch_buffers_help () =
  let src = Core.Kernels.par_mem ~threads:16 ~iters:32 ~n:4096 in
  let compiled = Core.Toolchain.compile src in
  let cycles size =
    let cfg =
      C.with_overrides C.fpga64 [ Printf.sprintf "prefetch_buffer_size=%d" size ]
    in
    let r = Core.Toolchain.run_cycle ~config:cfg compiled in
    r.Core.Toolchain.cycles
  in
  let without = cycles 0 and with8 = cycles 8 in
  Tu.check_bool
    (Printf.sprintf "prefetch (%d) beats none (%d)" with8 without)
    true (with8 < without)

let deterministic_across_runs () =
  let src = Core.Kernels.compaction ~n:64 in
  let a = Core.Workloads.sparse_array ~seed:5 ~n:64 ~density:50 in
  let memmap = Isa.Memmap.of_ints [ ("A", a) ] in
  let compiled = Core.Toolchain.compile ~memmap src in
  let r1 = Core.Toolchain.run_cycle ~config:C.fpga64 compiled in
  let r2 = Core.Toolchain.run_cycle ~config:C.fpga64 compiled in
  Tu.check_int "same cycle count" r1.Core.Toolchain.cycles r2.Core.Toolchain.cycles;
  Tu.check_string "same output" r1.Core.Toolchain.output r2.Core.Toolchain.output

let max_cycles_budget () =
  let img = Isa.Program.resolve (Isa.Asm.parse "main: j main") in
  let m = M.create ~config:C.tiny img in
  let r = M.run ~max_cycles:1000 m in
  Tu.check_bool "not halted" false r.M.halted;
  Tu.check_bool "stopped near budget" true (r.M.cycles <= 1001)

(* ------------------------------------------------------------------ *)
(* Plugins, traces, checkpoints *)

let filter_plugin_hot_locations () =
  let src = Core.Kernels.reduce_psm ~n:32 in
  let compiled = Core.Toolchain.compile src in
  let m = Core.Toolchain.machine ~config:C.tiny compiled in
  let f = Xmtsim.Plugin.hot_locations ~top:3 () in
  ignore (M.attach m f.Xmtsim.Plugin.probe : unit -> unit);
  ignore (M.run m);
  Tu.check_string "name" "hot-locations" f.Xmtsim.Plugin.probe.Xmtsim.Probe.name;
  Tu.check_bool "has content" true (String.length (f.Xmtsim.Plugin.report ()) > 20)

let activity_plugin_called () =
  let src = Core.Kernels.vecadd ~n:64 in
  let compiled = Core.Toolchain.compile src in
  let m = Core.Toolchain.machine ~config:C.tiny compiled in
  let samples = ref 0 in
  M.add_activity_plugin m ~interval:50 (fun _ _ -> incr samples);
  ignore (M.run m);
  Tu.check_bool "sampled" true (!samples > 0)

let plugin_interval_validated () =
  let m = Core.Toolchain.machine ~config:C.tiny (Core.Toolchain.compile (Core.Kernels.vecadd ~n:8)) in
  List.iter
    (fun (what, attach) ->
      match attach () with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "%s: expected Invalid_argument" what)
    [
      ("sampler", fun () -> ignore (Xmtsim.Sampler.attach ~name:"p" ~interval:0 m (fun _ _ -> [])));
      ("profiler", fun () -> ignore (Xmtsim.Plugin.attach_profiler ~interval:0 m));
      ("governor", fun () -> ignore (Xmtsim.Governor.attach ~interval:0 m));
      ("raw", fun () -> M.add_activity_plugin m ~interval:(-1) (fun _ _ -> ()));
    ]

let trace_captures_instrs () =
  let compiled = Core.Toolchain.compile "int main() { print_int(3); return 0; }" in
  let m = Core.Toolchain.machine ~config:C.tiny compiled in
  let buf = Buffer.create 256 in
  Xmtsim.Trace.attach ~filter:{ Xmtsim.Trace.all with Xmtsim.Trace.limit = 10 } m
    (Buffer.add_string buf);
  ignore (M.run m);
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  Tu.check_bool "captured some lines" true (List.length lines > 3);
  Tu.check_bool "mentions MTCU" true
    (List.exists
       (fun l -> String.length l > 10 && String.sub l 9 4 = "MTCU")
       lines)

let package_trace_stations () =
  let asm = Tu.spawn_asm {|
  la $t3, A
  lw $t4, 0($t3)
  sw.nb $t4, 0($t3)
|} in
  let img = Isa.Program.resolve (Isa.Asm.parse asm) in
  let m = M.create ~config:C.tiny img in
  let stages = ref [] in
  let package ~stage ~kind ~addr:_ ~tcu:_ ~pc:_ ~module_:_ =
    if kind = "load" || stage = "dram-fill" then stages := stage :: !stages
  in
  ignore (M.attach m { Xmtsim.Probe.nop with package } : unit -> unit);
  ignore (M.run m);
  let order = List.rev !stages in
  (* the first load is a cold miss: inject -> arrive -> miss -> fill -> reply *)
  let rec is_subseq needle hay =
    match (needle, hay) with
    | [], _ -> true
    | _, [] -> false
    | n :: ns, h :: hs -> if n = h then is_subseq ns hs else is_subseq needle hs
  in
  Tu.check_bool "stations in order" true
    (is_subseq
       [ "icn-inject"; "module-arrive"; "cache-miss"; "dram-fill"; "reply" ]
       order)

(* A snapshot is architectural state only: one taken mid-run on tiny,
   at a quiescent point, resumes on fpga64 to the output of an
   uninterrupted fpga64 run (phase sampling restores this way). *)
let checkpoint_across_configs () =
  let src = Core.Kernels.compaction ~n:32 in
  let a = Core.Workloads.sparse_array ~seed:8 ~n:32 ~density:50 in
  let compiled = Core.Toolchain.compile ~memmap:(Isa.Memmap.of_ints [ ("A", a) ]) src in
  let tiny = Core.Toolchain.run_cycle ~config:C.tiny compiled in
  let straight = M.run (Core.Toolchain.machine ~config:C.fpga64 compiled) in
  let m3 = Core.Toolchain.machine ~config:C.tiny compiled in
  ignore (M.run ~max_cycles:(tiny.Core.Toolchain.cycles / 2) m3);
  M.run_to_quiescent m3;
  Tu.check_bool "tiny run checkpointed mid-way" true (M.cycles m3 < tiny.Core.Toolchain.cycles);
  let m4 = Core.Toolchain.machine ~config:C.fpga64 compiled in
  M.restore m4 (M.checkpoint m3);
  let r4 = M.run m4 in
  Tu.check_bool "restored fpga64 run halts" true r4.M.halted;
  Tu.check_string "same output as fpga64" straight.M.output r4.M.output

(* Six psm rounds on tiny: the straight run, a machine run to the first
   quiescent point past half-way, and a fresh one restored from its
   checkpoint through a file *)
let rounds_checkpointed () =
  let compiled = Core.Toolchain.compile Tu.rounds_src in
  let straight = Core.Toolchain.run_cycle ~config:C.tiny compiled in
  let m1 = Core.Toolchain.machine ~config:C.tiny compiled in
  ignore (M.run ~max_cycles:(straight.Core.Toolchain.cycles / 2) m1);
  M.run_to_quiescent m1;
  let path = Filename.temp_file "xmtsnap" ".bin" in
  M.snapshot_to_file (M.checkpoint m1) path;
  let snap = M.snapshot_of_file path in
  Sys.remove path;
  let m2 = Core.Toolchain.machine ~config:C.tiny compiled in
  M.restore m2 snap;
  (straight, m1, m2)

let checkpoint_mid_run () =
  (* §III-E: save at a point given ahead of time, resume later *)
  let straight, m1, m2 = rounds_checkpointed () in
  Tu.check_bool "not yet finished" false (M.cycles m1 >= straight.Core.Toolchain.cycles);
  let r2 = M.run m2 in
  Tu.check_bool "resumed run halts" true r2.M.halted;
  Tu.check_string "same final output" straight.Core.Toolchain.output r2.M.output

let stats_json stats =
  let reg = Obs.Metrics.create () in
  Xmtsim.Stats.export stats reg;
  Obs.Json.to_string (Obs.Metrics.to_json reg)

let checkpoint_preserves_telemetry () =
  (* a mid-run checkpoint must carry the accumulated Stats (counters and
     latency histograms) and the ICN contention state across the file
     round trip, so a resumed run reports the same telemetry as a
     straight one *)
  let straight, m1, m2 = rounds_checkpointed () in
  (* restored telemetry is byte-identical: every Stats counter and every
     latency histogram bucket survived the Marshal round trip *)
  Tu.check_string "stats export equal after restore" (stats_json (M.stats m1))
    (stats_json (M.stats m2));
  Tu.check_bool "icn contention state equal" true
    (M.icn_backlog m1 = M.icn_backlog m2);
  Tu.check_bool "mem round-trips already observed" true
    (let s = stats_json (M.stats m1) in
     (* the mid-run stats contain populated latency histograms *)
     let j = Obs.Json.of_string s in
     match Obs.Json.member "metrics" j with
     | Some (Obs.Json.List ms) ->
       List.exists
         (fun m ->
           Obs.Json.member "name" m = Some (Obs.Json.Str "sim.mem.request_latency")
           && (match Obs.Json.member "count" m with
              | Some (Obs.Json.Int n) -> n > 0
              | _ -> false))
         ms
     | _ -> false);
  (* and the resumed run still completes with the right answer *)
  let r2 = M.run m2 in
  Tu.check_string "same final output" straight.Core.Toolchain.output r2.M.output;
  (* a fresh machine finishing the back half accumulates strictly more
     telemetry than the checkpoint had: the counters keep counting *)
  Tu.check_bool "stats keep accumulating" true
    (stats_json (M.stats m2) <> stats_json (M.stats m1))

(* Quiescence is reached inside one run: a single-stepped reference lands
   on the same cycle, and the long parallel window costs no more events
   than a plain run over it (one stop event per stepped cycle would). *)
let checkpoint_quiescence_one_run () =
  let compiled = Core.Toolchain.compile (Core.Kernels.par_comp ~threads:64 ~iters:40) in
  let machine () = Core.Toolchain.machine ~config:C.tiny compiled in
  let start = 300 in
  let reference = machine () in
  ignore (M.run ~max_cycles:start reference);
  while not (M.is_quiescent reference) do
    ignore (M.run ~max_cycles:1 reference)
  done;
  let target = M.cycles reference in
  Tu.check_bool "a long window" true (target - start > 1000);
  let m = machine () in
  let runs = ref 0 in
  ignore (M.attach m { Xmtsim.Probe.nop with run_end = (fun ~halted:_ -> incr runs) }
          : unit -> unit);
  ignore (M.run ~max_cycles:start m);
  let events = M.events_processed m in
  runs := 0;
  M.run_to_quiescent m;
  Tu.check_int "same cycle as single steps" target (M.cycles m);
  Tu.check_bool "at most two runs" true (!runs <= 2);
  let plain = machine () in
  ignore (M.run ~max_cycles:start plain);
  let plain_events = M.events_processed plain in
  ignore (M.run ~max_cycles:(target - start) plain);
  Tu.check_bool "no event per cycle" true
    (M.events_processed m - events <= M.events_processed plain - plain_events + 1)

let checkpoint_file_roundtrip () =
  let compiled = Core.Toolchain.compile "int main() { print_int(9); return 0; }" in
  let m = Core.Toolchain.machine ~config:C.tiny compiled in
  let snap = M.checkpoint m in
  let path = Filename.temp_file "xmtsnap" ".bin" in
  M.snapshot_to_file snap path;
  let snap2 = M.snapshot_of_file path in
  Sys.remove path;
  let m2 = Core.Toolchain.machine ~config:C.tiny compiled in
  M.restore m2 snap2;
  Tu.check_string "ran from file snapshot" "9" (M.run m2).M.output

(* A checkpoint taken after the halt restores a halted machine, in
   either gating mode: the resumed run executes nothing and reports the
   saved output and telemetry. *)
let checkpoint_after_halt () =
  let compiled = Core.Toolchain.compile "int main() { print_int(9); return 0; }" in
  let m = Core.Toolchain.machine ~config:C.tiny compiled in
  let r = M.run m in
  Tu.check_bool "halted" true r.M.halted;
  let path = Filename.temp_file "xmtsnap" ".bin" in
  M.snapshot_to_file (M.checkpoint m) path;
  let snap = M.snapshot_of_file path in
  Sys.remove path;
  List.iter
    (fun gating ->
      let m2 = Core.Toolchain.machine ~config:C.tiny compiled in
      M.set_gating m2 gating;
      M.restore m2 snap;
      let what = if gating then "gated" else "ungated" in
      let r2 = M.run m2 in
      Tu.check_bool (what ^ ": restored halted") true r2.M.halted;
      Tu.check_string (what ^ ": saved output, once") "9" r2.M.output;
      Tu.check_int (what ^ ": no cycle run") 0 r2.M.cycles;
      Tu.check_int (what ^ ": no event run") 0 (M.events_processed m2);
      Tu.check_string (what ^ ": saved telemetry")
        (stats_json (M.stats m))
        (stats_json { (M.stats m2) with Xmtsim.Stats.cycles = (M.stats m).Xmtsim.Stats.cycles }))
    [ true; false ]

(* A checkpoint taken while a recursive serial function is deep in the
   master stack survives the file round trip: the restored run unwinds
   the saved frames to the straight run's output. *)
let checkpoint_deep_stack () =
  let compiled =
    Core.Toolchain.compile
      {|
int sum_to(int n) { if (n == 0) return 0; return n + sum_to(n - 1); }
int main(void) { print_int(sum_to(1500)); return 0; }
|}
  in
  let straight = Core.Toolchain.run_cycle ~config:C.tiny compiled in
  Tu.check_string "straight output" "1125750" straight.Core.Toolchain.output;
  let m = Core.Toolchain.machine ~config:C.tiny compiled in
  ignore (M.run ~max_cycles:(straight.Core.Toolchain.cycles / 2) m);
  M.run_to_quiescent m;
  let path = Filename.temp_file "xmtsnap" ".bin" in
  M.snapshot_to_file (M.checkpoint m) path;
  let snap = M.snapshot_of_file path in
  Sys.remove path;
  let m2 = Core.Toolchain.machine ~config:C.tiny compiled in
  M.restore m2 snap;
  let r = M.run m2 in
  Tu.check_bool "restored run halts" true r.M.halted;
  Tu.check_string "restored output" "1125750" r.M.output

(* snapshot files are checked on load: a truncated file or a foreign
   one is a typed error, and so is restoring into another program *)
let checkpoint_file_checked () =
  let compiled = Core.Toolchain.compile "int main() { print_int(9); return 0; }" in
  let path = Filename.temp_file "xmtsnap" ".bin" in
  M.snapshot_to_file (M.checkpoint (Core.Toolchain.machine ~config:C.tiny compiled)) path;
  let whole = In_channel.with_open_bin path In_channel.input_all in
  let rejected what contents =
    Out_channel.with_open_bin path (fun oc -> output_string oc contents);
    match M.snapshot_of_file path with
    | exception M.Bad_snapshot _ -> ()
    | _ -> Alcotest.failf "%s snapshot accepted" what
  in
  rejected "truncated" (String.sub whole 0 (String.length whole - 10));
  rejected "header-only" (String.sub whole 0 20);
  rejected "wrong-magic" ("NOT-SNAP" ^ String.sub whole 8 (String.length whole - 8));
  (* a file of another format version names both versions *)
  let old = Bytes.of_string whole in
  Bytes.set_int32_be old 8 3l;
  Out_channel.with_open_bin path (fun oc -> output_bytes oc old);
  (match M.snapshot_of_file path with
  | exception M.Bad_snapshot msg ->
    Tu.check_string "names both versions" (path ^ ": snapshot format version 3, expected 4") msg
  | _ -> Alcotest.fail "version-3 snapshot accepted");
  Out_channel.with_open_bin path (fun oc -> output_string oc whole);
  let snap = M.snapshot_of_file path in
  Sys.remove path;
  let other = Core.Toolchain.compile "int main() { print_int(8); return 0; }" in
  match M.restore (Core.Toolchain.machine ~config:C.tiny other) snap with
  | exception M.Bad_snapshot _ -> ()
  | () -> Alcotest.fail "snapshot of another image restored"

(* ------------------------------------------------------------------ *)
(* DVFS governor *)

let governor_throttles_and_logs () =
  (* an impossible-to-satisfy thermal limit forces a throttle decision on
     the first sample; the decision must show up in the decision log, the
     clock period, the metrics export, the JSON and the span trace *)
  let src = Core.Kernels.compaction ~n:32 in
  let a = Core.Workloads.sparse_array ~seed:8 ~n:32 ~density:50 in
  let memmap = Isa.Memmap.of_ints [ ("A", a) ] in
  let compiled = Core.Toolchain.compile ~memmap src in
  let m = Core.Toolchain.machine ~config:C.tiny compiled in
  let tr = Obs.Tracer.create () in
  let spans = Xmtsim.Trace.attach_spans m tr in
  let buf = Buffer.create 1024 in
  let stream = Obs.Stream.create (Obs.Stream.buffer_sink buf) in
  let g = Xmtsim.Governor.attach ~stream ~tracer:tr ~temp_hi:1.0 ~interval:40 m in
  let base = M.period m M.Clusters in
  let r = M.run m in
  Tu.check_bool "halted" true r.M.halted;
  let ds = Xmtsim.Governor.decisions g in
  Tu.check_bool "made decisions" true (ds <> []);
  let d = List.hd ds in
  Tu.check_string "reason" "thermal-high" d.Xmtsim.Governor.d_reason;
  Tu.check_int "from base period" base d.Xmtsim.Governor.d_from;
  Tu.check_int "throttled to 2" 2 d.Xmtsim.Governor.d_to;
  Tu.check_int "clusters stay throttled" 2 (M.period m M.Clusters);
  Tu.check_int "icn throttled too" 2 (M.period m M.Icn);
  Tu.check_bool "sampled more than once" true (Xmtsim.Governor.samples g > 1);
  (* the sampler's stream rollup carries the same story: every sample,
     with temperature, power and the ICN backlog *)
  let smp = Xmtsim.Governor.sampler g in
  Tu.check_int "sampler samples" (Xmtsim.Governor.samples g) (Xmtsim.Sampler.samples smp);
  Tu.check_bool "peak at least the last reading" true
    (Xmtsim.Sampler.peak_temperature smp >= Xmtsim.Sampler.temperature smp);
  Xmtsim.Sampler.close_window smp;
  Obs.Stream.close stream;
  let windows =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
    |> List.map Obs.Json.of_string
    |> List.filter (fun j ->
           Obs.Json.member "type" j = Some (Obs.Json.Str "window.close")
           && Obs.Json.member "window" j = Some (Obs.Json.Str "sim.governor"))
  in
  Tu.check_int "rollup covers every sample" (Xmtsim.Governor.samples g)
    (List.fold_left
       (fun acc w ->
         acc + Option.value ~default:0 (Option.bind (Obs.Json.member "count" w) Obs.Json.to_int))
       0 windows);
  List.iter
    (fun w ->
      match Obs.Json.member "metrics" w with
      | Some (Obs.Json.Obj kvs) ->
        Tu.check_bool "rollup keys" true
          (List.map fst kvs = [ "icn_backlog"; "power_watts"; "temp_k" ])
      | _ -> Alcotest.fail "window.close without metrics")
    windows;
  (* metrics export *)
  let reg = Obs.Metrics.create () in
  Xmtsim.Governor.export g reg;
  Tu.check_bool "set_period counter" true
    (Obs.Metrics.counter_value reg
       ~labels:[ ("domain", "clusters"); ("reason", "thermal-high") ]
       "sim.governor.set_period_total"
    = Some 1);
  (* JSON decision log *)
  (match Obs.Json.member "decisions" (Xmtsim.Governor.to_json g) with
  | Some (Obs.Json.List l) ->
    Tu.check_int "json decisions" (List.length ds) (List.length l)
  | _ -> Alcotest.fail "no decisions list in governor json");
  (* trace: governor instants present on the governor thread *)
  Xmtsim.Trace.flush_spans spans;
  match Obs.Json.of_string (Obs.Tracer.to_string tr) with
  | Obs.Json.List events ->
    let gov_events =
      List.filter
        (fun e ->
          Obs.Json.member "name" e = Some (Obs.Json.Str "set_period")
          && Obs.Json.member "cat" e = Some (Obs.Json.Str "governor"))
        events
    in
    Tu.check_int "trace instants match decisions" (List.length ds)
      (List.length gov_events);
    List.iter
      (fun e ->
        Tu.check_bool "on governor tid" true
          (Obs.Json.member "tid" e
          = Some (Obs.Json.Int (Xmtsim.Trace.tid_governor (M.config m)))))
      gov_events
  | _ -> Alcotest.fail "trace not a list"

let governor_recovers () =
  (* thresholds nothing can reach: the governor samples but leaves the
     clocks alone — no spurious decisions on a healthy run *)
  let compiled =
    Core.Toolchain.compile "int main() { print_int(7); return 0; }"
  in
  let m = Core.Toolchain.machine ~config:C.tiny compiled in
  let g = Xmtsim.Governor.attach ~temp_hi:1e9 ~icn_hi:1e9 ~interval:40 m in
  let base = M.period m M.Clusters in
  ignore (M.run m);
  Tu.check_bool "no decisions" true (Xmtsim.Governor.decisions g = []);
  Tu.check_int "period untouched" base (M.period m M.Clusters)

(* ------------------------------------------------------------------ *)
(* Power / thermal / floorplan *)

let per_cluster_activity_attribution () =
  (* a 4-thread spawn on fpga64 occupies only one cluster: its activity
     counter and power must exceed the idle clusters' *)
  let src = {|
int B[4];
int main(void) {
  spawn(0, 3) {
    int x = $;
    int k;
    for (k = 0; k < 200; k++) x = (x * 3 + 1) & 65535;
    B[$] = x;
  }
  return 0;
}
|} in
  let compiled = Core.Toolchain.compile src in
  let m = Core.Toolchain.machine ~config:C.fpga64 compiled in
  let p = Xmtsim.Power.create m in
  let last = ref [||] in
  M.add_activity_plugin m ~interval:200 (fun _ _ ->
      last := Xmtsim.Power.sample p);
  ignore (M.run m);
  let act = M.cluster_activity m in
  Tu.check_bool "cluster 0 did the work" true
    (act.(0) > 100 && Array.for_all (fun c -> c <= act.(0)) act);
  (* other clusters only ran the dispatch round (ps + failing chkid) *)
  Tu.check_bool "work concentrated on cluster 0" true
    (act.(0) > 5 * act.(Array.length act - 1));
  if Array.length !last > 1 then
    Tu.check_bool "busy cluster draws more power" true (!last.(0) > !last.(1))

let power_sampling () =
  let src = Core.Kernels.par_comp ~threads:16 ~iters:50 in
  let compiled = Core.Toolchain.compile src in
  let m = Core.Toolchain.machine ~config:C.fpga64 compiled in
  let p = Xmtsim.Power.create m in
  let totals = ref [] in
  M.add_activity_plugin m ~interval:100 (fun _ _ ->
      ignore (Xmtsim.Power.sample p);
      totals := Xmtsim.Power.total p :: !totals);
  ignore (M.run m);
  Tu.check_bool "sampled" true (!totals <> []);
  List.iter (fun t -> Tu.check_bool "positive power" true (t > 0.0)) !totals

let thermal_heats_and_cools () =
  let names = Array.append (Array.init 4 (fun i -> Printf.sprintf "cluster%d" i))
      [| "icn" |] in
  let th = Xmtsim.Thermal.create ~grid_w:2 names in
  let p = Xmtsim.Thermal.default in
  let hot = [| 5.0; 0.0; 0.0; 0.0; 1.0 |] in
  for _ = 1 to 100 do
    Xmtsim.Thermal.step th ~dt:0.001 hot
  done;
  let temps = Array.copy (Xmtsim.Thermal.temperatures th) in
  Tu.check_bool "hot cluster above ambient" true (temps.(0) > p.Xmtsim.Thermal.ambient);
  Tu.check_bool "hot cluster hottest" true (temps.(0) > temps.(3));
  (* lateral coupling warms the neighbour above the far corner *)
  Tu.check_bool "neighbour coupling" true (temps.(1) > temps.(3));
  (* cooling with zero power *)
  for _ = 1 to 2000 do
    Xmtsim.Thermal.step th ~dt:0.001 (Array.make 5 0.0)
  done;
  let cooled = Xmtsim.Thermal.temperatures th in
  Tu.check_bool "cools toward ambient" true
    (cooled.(0) < temps.(0) && cooled.(0) -. p.Xmtsim.Thermal.ambient < 1.0)

let floorplan_renders () =
  let v = Array.init 16 float_of_int in
  let s = Xmtsim.Floorplan.render ~title:"test" ~grid_w:4 v in
  Tu.check_bool "multi-line" true (List.length (String.split_on_char '\n' s) >= 5);
  let s2 = Xmtsim.Floorplan.render_numeric ~grid_w:4 v in
  Tu.check_bool "numeric" true (String.length s2 > 16)

let profiler_detects_phases () =
  let src = {|
int A[2048];
int B[2048];
int main(void) {
  spawn(0, 511) {
    int x = A[$];
    int k;
    for (k = 0; k < 30; k++) x = (x * 3 + 1) & 65535;
    B[$] = x;
  }
  spawn(0, 511) {
    int k;
    for (k = 0; k < 8; k++) {
      B[($ * 4 + k * 53) & 2047] = A[($ * 4 + k * 97) & 2047];
    }
  }
  return 0;
}
|} in
  let compiled = Core.Toolchain.compile src in
  let m = Core.Toolchain.machine ~config:C.fpga64 compiled in
  let p = Xmtsim.Plugin.attach_profiler ~interval:500 m in
  ignore (M.run m);
  let rendered = Xmtsim.Plugin.render_profile p in
  let has sub =
    let rec find i =
      if i + String.length sub > String.length rendered then false
      else if String.sub rendered i (String.length sub) = sub then true
      else find (i + 1)
    in
    find 0
  in
  Tu.check_bool "sees a compute phase" true (has "compute-intensive");
  Tu.check_bool "sees a memory phase" true (has "memory-intensive")

let dvfs_from_activity_plugin () =
  (* an activity plug-in throttles the cluster clock mid-run (§III-B) *)
  let src = Core.Kernels.par_comp ~threads:8 ~iters:200 in
  let compiled = Core.Toolchain.compile src in
  let baseline =
    (Core.Toolchain.run_cycle ~config:C.tiny compiled).Core.Toolchain.cycles
  in
  let m = Core.Toolchain.machine ~config:C.tiny compiled in
  M.add_activity_plugin m ~interval:200 (fun m _ ->
      M.set_period m M.Clusters 3);
  let r = M.run m in
  Tu.check_bool
    (Printf.sprintf "throttled (%d) slower than baseline (%d)" r.M.cycles baseline)
    true
    (r.M.cycles > baseline + 100)

(* ------------------------------------------------------------------ *)
(* Functional-mode incremental interface + phase sampling (§III-F) *)

let functional_advance_pauses_at_boundaries () =
  let src = Core.Kernels.reduce_tree ~n:64 in
  let compiled = Core.Toolchain.compile src in
  let st = Xmtsim.Functional_mode.init compiled.Core.Toolchain.image in
  let status = Xmtsim.Functional_mode.advance st ~budget:10 in
  Tu.check_bool "paused" true (status = `Paused);
  Tu.check_bool "made progress" true (Xmtsim.Functional_mode.instructions st >= 10);
  (* run to completion *)
  let rec drain () =
    match Xmtsim.Functional_mode.advance st ~budget:1000 with
    | `Halted -> ()
    | `Paused -> drain ()
  in
  drain ();
  Tu.check_bool "halted" true (Xmtsim.Functional_mode.halted st);
  (* same output as the one-shot runner *)
  let one = Xmtsim.Functional_mode.run compiled.Core.Toolchain.image in
  Tu.check_string "same output" one.Xmtsim.Functional_mode.output
    (Xmtsim.Functional_mode.output st)

let functional_snapshot_handoff () =
  (* fast-forward half the program functionally, hand the state to the
     cycle machine, finish there: the final output must match *)
  let a = Core.Workloads.random_array ~seed:3 ~n:64 ~bound:50 in
  let memmap = Isa.Memmap.of_ints [ ("A", a) ] in
  let compiled = Core.Toolchain.compile ~memmap (Core.Kernels.reduce_tree ~n:64) in
  let img = compiled.Core.Toolchain.image in
  let st = Xmtsim.Functional_mode.init img in
  ignore (Xmtsim.Functional_mode.advance st ~budget:200);
  Tu.check_bool "not yet halted" false (Xmtsim.Functional_mode.halted st);
  let snap = Xmtsim.Functional_mode.snapshot st in
  let m = M.create ~config:C.tiny img in
  M.restore m snap;
  let r = M.run m in
  Tu.check_bool "halted on machine" true r.M.halted;
  Tu.check_string "correct final output"
    (string_of_int (Core.Reference.sum a))
    r.M.output

let phase_sampling_accuracy () =
  let src = {|
int A[2048];
int B[2048];
int main(void) {
  int round;
  for (round = 0; round < 12; round++) {
    spawn(0, 511) {
      int x = A[$] + round;
      int k;
      for (k = 0; k < 8; k++) x = (x * 3 + 1) & 65535;
      B[$] = x;
    }
  }
  print_int(B[0]);
  return 0;
}
|} in
  let compiled = Core.Toolchain.compile src in
  let img = compiled.Core.Toolchain.image in
  let full = Core.Toolchain.run_cycle ~config:C.fpga64 compiled in
  let est =
    Xmtsim.Phase_sampling.estimate ~config:C.fpga64 ~interval:8000 img
  in
  let err =
    abs_float
      (float_of_int est.Xmtsim.Phase_sampling.estimated_cycles
      -. float_of_int full.Core.Toolchain.cycles)
    /. float_of_int full.Core.Toolchain.cycles
  in
  Tu.check_bool
    (Printf.sprintf "estimate %d within 25%% of %d"
       est.Xmtsim.Phase_sampling.estimated_cycles full.Core.Toolchain.cycles)
    true (err < 0.25);
  Tu.check_bool "sampled a fraction of the instructions" true
    (est.Xmtsim.Phase_sampling.sampled_instructions * 2
    < est.Xmtsim.Phase_sampling.total_instructions);
  Tu.check_bool "found repeated phases" true
    (est.Xmtsim.Phase_sampling.phases < est.Xmtsim.Phase_sampling.intervals)

(* An interval longer than the program is the whole run: its snapshot is
   the freshly loaded state at instruction 0, the cycle machine runs it
   to the halt, and the estimate is the cycle-accurate count. *)
let phase_sampling_one_interval () =
  let a = Core.Workloads.random_array ~seed:3 ~n:64 ~bound:50 in
  let sparse = Core.Workloads.sparse_array ~seed:8 ~n:64 ~density:50 in
  let programs =
    [
      ("ser_comp 200", Core.Kernels.ser_comp ~iters:200, []);
      ("reduce_tree 64", Core.Kernels.reduce_tree ~n:64, [ ("A", a) ]);
      ("compaction 64", Core.Kernels.compaction ~n:64, [ ("A", sparse) ]);
    ]
  in
  List.iter
    (fun (name, src, arrays) ->
      let compiled =
        Core.Toolchain.compile ~memmap:(Isa.Memmap.of_ints arrays) src
      in
      let img = compiled.Core.Toolchain.image in
      let total =
        (Xmtsim.Functional_mode.run img).Xmtsim.Functional_mode.instructions
      in
      List.iter
        (fun (cname, config) ->
          let what = Printf.sprintf "%s on %s: " name cname in
          let full = Core.Toolchain.run_cycle ~config compiled in
          let est =
            Xmtsim.Phase_sampling.estimate ~config ~interval:(total + 1) img
          in
          let open Xmtsim.Phase_sampling in
          Tu.check_int (what ^ "estimate") full.Core.Toolchain.cycles
            est.estimated_cycles;
          Tu.check_int (what ^ "intervals") 1 est.intervals;
          Tu.check_int (what ^ "samples") 1 est.phases;
          Tu.check_int (what ^ "instructions") total est.total_instructions;
          Tu.check_int (what ^ "sampled instructions") total
            est.sampled_instructions;
          Tu.check_int (what ^ "sampled cycles") full.Core.Toolchain.cycles
            est.sampled_cycles)
        [ ("tiny", C.tiny); ("fpga64", C.fpga64); ("chip1024", C.chip1024) ])
    programs

(* [advance ~budget:0] makes no progress: an interval below 1 would
   never end the run.  A sample cut off by the cycle budget has no
   cycle count for its interval. *)
let phase_sampling_rejects () =
  let img =
    (Core.Toolchain.compile (Core.Kernels.ser_comp ~iters:200))
      .Core.Toolchain.image
  in
  List.iter
    (fun interval ->
      Tu.check_bool
        (Printf.sprintf "interval %d rejected" interval)
        true
        (match Xmtsim.Phase_sampling.estimate ~interval img with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ 0; -5 ];
  Tu.check_bool "a sample cut off by max_cycles raises Error" true
    (match
       Xmtsim.Phase_sampling.estimate
         ~config:(C.with_overrides C.fpga64 [ "max_cycles=10" ])
         img
     with
    | exception Xmtsim.Phase_sampling.Error _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Analytic timing verification: the stand-in for the paper's validation
   against the 64-TCU FPGA prototype (§III).  Every latency parameter must
   show up in end-to-end cycle counts exactly as configured. *)

let vcfg = C.with_overrides C.tiny [ "icn_jitter=0" ]

let vrun asm =
  let img = Isa.Program.resolve (Isa.Asm.parse asm) in
  let m = M.create ~config:vcfg img in
  (M.run m).M.cycles

let serial_prog n extra =
  Printf.sprintf "main:\n%s%s  halt\n  .data\nA: .word 7\n"
    (String.concat "" (List.init n (fun _ -> "  addi $t0, $t0, 1\n")))
    extra

let timing_alu_is_one_cycle () =
  Tu.check_int "10 extra ALU ops cost 10 cycles" 10
    (vrun (serial_prog 20 "") - vrun (serial_prog 10 ""))

let timing_shared_fu_latencies () =
  let base = vrun (serial_prog 10 "") in
  Tu.check_int "mul costs mul_latency" vcfg.C.mul_latency
    (vrun (serial_prog 10 "  mul $t1, $t0, $t0\n") - base);
  Tu.check_int "div costs div_latency" vcfg.C.div_latency
    (vrun (serial_prog 10 "  div $t1, $t0, $t0\n") - base);
  Tu.check_int "fpu op costs fpu_latency" vcfg.C.fpu_latency
    (vrun (serial_prog 10 "  add.s $f1, $f2, $f3\n") - base);
  Tu.check_int "sqrt costs sqrt_latency" vcfg.C.sqrt_latency
    (vrun (serial_prog 10 "  sqrt.s $f1, $f2\n") - base)

let timing_master_cache () =
  let base = vrun (serial_prog 10 "  la $t2, A\n") in
  let miss = vrun (serial_prog 10 "  la $t2, A\n  lw $t3, 0($t2)\n") in
  let hit = vrun (serial_prog 10 "  la $t2, A\n  lw $t3, 0($t2)\n  lw $t4, 0($t2)\n") in
  Tu.check_int "cold miss = dram + hit latency"
    (vcfg.C.dram_latency + vcfg.C.master_cache_hit_latency)
    (miss - base);
  Tu.check_int "hit = master_cache_hit_latency" vcfg.C.master_cache_hit_latency
    (hit - miss)

let spawn_one_thread extra =
  Printf.sprintf
    {|
main:
  li $t0, 0
  li $t1, 0
  spawn $t0, $t1
Ld:
  li $t2, 1
  ps $t2, $g8
  chkid $t2
%s  j Ld
  join
  halt
  .data
A: .word 7
|}
    extra

let timing_tcu_load_round_trip () =
  let base = vrun (spawn_one_thread "") in
  let one = vrun (spawn_one_thread "  la $t3, A\n  lw $t4, 0($t3)\n") in
  let two =
    vrun (spawn_one_thread "  la $t3, A\n  lw $t4, 0($t3)\n  lw $t5, 0($t3)\n")
  in
  (* round trip = send icn + deliver + [dram on miss] + module hit latency
     + return icn + accept; the la adds its own cycle *)
  Tu.check_int "cold load round trip"
    ((2 * vcfg.C.icn_latency) + vcfg.C.dram_latency + vcfg.C.cache_hit_latency + 2 + 1)
    (one - base);
  Tu.check_int "warm load round trip"
    ((2 * vcfg.C.icn_latency) + vcfg.C.cache_hit_latency + 2)
    (two - one)

let timing_dvfs_scales_linearly () =
  (* doubling every clock period must exactly double pure-ALU runtime *)
  let prog = serial_prog 64 "" in
  let img = Isa.Program.resolve (Isa.Asm.parse prog) in
  let run_with p =
    let m = M.create ~config:vcfg img in
    List.iter (fun d -> M.set_period m d p) [ M.Clusters; M.Icn; M.Caches; M.Dram ];
    (M.run m).M.cycles
  in
  let c1 = run_with 1 and c2 = run_with 2 in
  Tu.check_bool
    (Printf.sprintf "period 2 doubles ALU-bound time (%d vs 2x%d)" c2 c1)
    true
    (abs (c2 - (2 * c1)) <= 2)

(* ------------------------------------------------------------------ *)
(* Clock gating (§III-C): sleeping idle domains must be invisible to
   everything simulated — output, cycle counts, stats — and only reduce
   the host-side event count. *)

let gating_exports_clock_metrics () =
  (* a serial memory-bound run parks every domain during DRAM stalls *)
  let compiled = Core.Toolchain.compile (Core.Kernels.ser_mem ~iters:50 ~n:256) in
  let m = Core.Toolchain.machine ~config:C.tiny compiled in
  Tu.check_bool "gating defaults on" true (M.gating_enabled m);
  let r = M.run m in
  Tu.check_bool "halted" true r.M.halted;
  let reg = Obs.Metrics.create () in
  M.export_clocks m reg;
  let cnt name dom =
    match Obs.Metrics.counter_value reg ~labels:[ ("domain", dom) ] name with
    | Some v -> v
    | None -> -1
  in
  Tu.check_bool "cluster ticks exported" true (cnt "sim.clock.ticks" "clusters" > 0);
  Tu.check_bool "icn gated whole run" true (cnt "sim.clock.skipped_ticks" "icn" > 0);
  Tu.check_bool "dram gated" true (cnt "sim.clock.skipped_ticks" "dram" > 0);
  Tu.check_bool "caches gated" true (cnt "sim.clock.skipped_ticks" "caches" > 0)

let restore_short_regfile_snapshot () =
  (* snapshots from a smaller register file must restore (pre-fix: the
     blits hardcoded length 32 and raised Invalid_argument) *)
  let compiled =
    Core.Toolchain.compile "int main() { print_int(7); return 0; }"
  in
  let img = compiled.Core.Toolchain.image in
  let m = M.create ~config:C.tiny img in
  let snap =
    M.make_snapshot ~image:img ~mem:(Xmtsim.Mem.load img) ~regs:(Array.make 8 0)
      ~fregs:(Array.make 8 0.0) ~pc:img.Isa.Program.entry
      ~globals:(Array.make Isa.Reg.num_globals 0) ~output:""
  in
  M.restore m snap;
  Tu.check_string "runs after restore" "7" (M.run m).M.output

let halt_restore_rerun () =
  (* Regression for the stale budget-stop: run 1 arms a stop at 1.5x the
     halt cycle; pre-fix that unconsumed stop survived the halt and
     truncated the restored rerun.  Also exercises the restore path waking
     a gated cluster clock after a halt parked every domain. *)
  let compiled =
    Core.Toolchain.compile
      {|
int A[64];
int main(void) {
  spawn(0, 63) { A[$] = $; }
  print_int(A[5] + A[60]);
  return 0;
}
|}
  in
  let straight = Core.Toolchain.run_cycle ~config:C.tiny compiled in
  let c1 = straight.Core.Toolchain.cycles in
  let m = Core.Toolchain.machine ~config:C.tiny compiled in
  let snap = M.checkpoint m in
  let r1 = M.run ~max_cycles:(c1 + (c1 / 2)) m in
  Tu.check_bool "first run halts" true r1.M.halted;
  M.restore m snap;
  let r2 = M.run ~max_cycles:(c1 * 3) m in
  Tu.check_bool "restored rerun halts" true r2.M.halted;
  Tu.check_string "restored rerun output" straight.Core.Toolchain.output
    r2.M.output;
  Tu.check_int "restored rerun cycles" 1115 r2.M.cycles

let gating_rejects_late_toggle () =
  let compiled =
    Core.Toolchain.compile "int main() { print_int(1); return 0; }"
  in
  let m = Core.Toolchain.machine ~config:C.tiny compiled in
  ignore (M.run m);
  Alcotest.check_raises "set_gating after start"
    (M.Sim_error "set_gating must be called before the first run") (fun () ->
      M.set_gating m false)

(* The cluster sweep is skipped on cycles with no spawn active and no
   package queued at any cluster.  The skip must be exact: output,
   cycles, the whole Stats.t and the host event count are pinned to the
   values the machine gave before the skip existed, on 64 clusters and
   on one, gated and ungated.  The prefetch kernel's threads prefetch
   lines they never load, so the replies reach the cluster return
   queues after the join, with no spawn active (all 64 of them on
   chip1024, 11 on tiny). *)

let serial_skip_exact () =
  let a = Core.Workloads.random_array ~seed:5 ~n:2048 ~bound:999 in
  let image ?(arrays = []) src =
    (Core.Toolchain.compile ~memmap:(Isa.Memmap.of_ints arrays) src).Core.Toolchain.image
  in
  let kernels =
    [
      ("ser_comp", image (Core.Kernels.ser_comp ~iters:300));
      ("ser_mem", image ~arrays:[ ("A", a) ] (Core.Kernels.ser_mem ~iters:60 ~n:2048));
      ( "par_mem",
        image ~arrays:[ ("A", a) ] (Core.Kernels.par_mem ~threads:128 ~iters:4 ~n:2048) );
      ("prefetch", Isa.Program.resolve (Isa.Asm.parse Tu.prefetch_after_join_asm));
    ]
  in
  (* kernel, config, gated, output, cycles, Stats.t digest, host events *)
  let expected =
    [
      ("ser_comp", "chip1024", true, "9536", 4814, "82648b0b28211e90d0b8f85787ea278f", 4819);
      ("ser_comp", "chip1024", false, "9536", 4814, "82648b0b28211e90d0b8f85787ea278f", 19261);
      ("ser_comp", "tiny", true, "9536", 4814, "5a5962e3d486673d889799ac71a5baae", 4819);
      ("ser_comp", "tiny", false, "9536", 4814, "5a5962e3d486673d889799ac71a5baae", 19261);
      ("ser_mem", "chip1024", true, "", 7155, "673c4a6c3f6cd5f7629c440a9fc2ca11", 1220);
      ("ser_mem", "chip1024", false, "", 7155, "673c4a6c3f6cd5f7629c440a9fc2ca11", 28685);
      ("ser_mem", "tiny", true, "", 2355, "a15bc0a5822197753bf7fd390601303c", 1220);
      ("ser_mem", "tiny", false, "", 2355, "a15bc0a5822197753bf7fd390601303c", 9485);
      ("par_mem", "chip1024", true, "", 647, "d3df974ea22a4b2f7a073bd596cc8e8d", 6263);
      ("par_mem", "chip1024", false, "", 647, "d3df974ea22a4b2f7a073bd596cc8e8d", 7438);
      ("par_mem", "tiny", true, "", 4121, "1c4254df782e1b0d5775d7df7e0766c8", 13761);
      ("par_mem", "tiny", false, "", 4121, "1c4254df782e1b0d5775d7df7e0766c8", 20314);
      ("prefetch", "chip1024", true, "0", 854, "85e8b0b76d91314469aa7fa9438db10e", 2417);
      ("prefetch", "chip1024", false, "0", 854, "85e8b0b76d91314469aa7fa9438db10e", 4767);
      ("prefetch", "tiny", true, "0", 991, "8b883b24730efb1ea0698aaaa1e80b37", 1695);
      ("prefetch", "tiny", false, "0", 991, "8b883b24730efb1ea0698aaaa1e80b37", 4295);
    ]
  in
  List.iter
    (fun (kname, cname, gating, out, cycles, digest, events) ->
      let m = M.create ~config:(List.assoc cname C.presets) (List.assoc kname kernels) in
      M.set_gating m gating;
      let r = M.run m in
      let what = Printf.sprintf "%s/%s/%s" kname cname (if gating then "gated" else "ungated") in
      Tu.check_string (what ^ " output") out r.M.output;
      Tu.check_int (what ^ " cycles") cycles r.M.cycles;
      Tu.check_string (what ^ " stats") digest (Tu.stats_digest (M.stats m));
      Tu.check_int (what ^ " host events") events (M.events_processed m))
    expected

(* The cluster tick steps only runnable TCUs and counts the memory and ps
   waits in bulk; a probe hears each of those waits once, as it begins,
   and then the event that ends it (woken, release, sync).  The TCUs a
   probe rebuilds in each wait from those events, with the issues,
   stalls and FU-latency ticks it hears, must account for the TCU
   counters' growth at every cluster tick, where hooks and plug-ins read
   them mid-run, on kernels whose TCUs wait on memory, fences and
   prefix-sums; and the counters must be a plain run's. *)
let wait_counters_every_tick () =
  let compile ?(arrays = []) src =
    (Core.Toolchain.compile ~memmap:(Isa.Memmap.of_ints arrays) src).Core.Toolchain.image
  in
  let a = Core.Workloads.random_array ~seed:5 ~n:2048 ~bound:999 in
  let sparse = Core.Workloads.sparse_array ~seed:8 ~n:256 ~density:50 in
  let kernels =
    [
      ("par_mem", compile ~arrays:[ ("A", a) ] (Core.Kernels.par_mem ~threads:128 ~iters:4 ~n:2048));
      ("publication", compile (Core.Kernels.publication ~n:64));
      ("compaction", compile ~arrays:[ ("A", sparse) ] (Core.Kernels.compaction ~n:256));
    ]
  in
  let module P = Xmtsim.Probe in
  (* per cluster tick: the growth of the busy, memory-wait, FU-wait and
     ps-wait counters, and what the probe (if [probed]) accounts for *)
  let counters ~probed config image =
    let m = M.create ~config image in
    let n = config.C.num_clusters * config.C.tcus_per_cluster in
    let in_wait = Array.make n None and waiting = Hashtbl.create 4 and heard = Hashtbl.create 4 in
    let in_kind w = Option.value ~default:0 (Hashtbl.find_opt waiting w) in
    let tally w d = Hashtbl.replace waiting w (in_kind w + d) in
    let ends w ~tcu =
      if in_wait.(tcu) = Some w then begin
        in_wait.(tcu) <- None;
        tally w (-1)
      end
    in
    let busy = ref 0 and stalls = ref 0 in
    if probed then
      ignore
        (M.attach m
           { P.nop with
             issue = (fun ~tcu ~pc:_ _ ~addr:_ -> if tcu >= 0 then incr busy);
             stall = (fun ~tcu:_ ~pc:_ -> incr stalls);
             wait =
               (fun ~tcu w ->
                 if w = P.Fu then (if tcu >= 0 then incr busy)
                 else begin
                   if in_wait.(tcu) <> None then Alcotest.failf "TCU %d: a wait began twice" tcu;
                   in_wait.(tcu) <- Some w;
                   tally w 1;
                   Hashtbl.replace heard w ()
                 end);
             woken = (fun ~tcu ~pref:_ _ -> ends P.Mem ~tcu);
             release = ends P.Fence;
             sync = ends P.Ps }
          : unit -> unit);
    let last = ref (0, 0, 0, 0) and log = ref [] and rebuilt = ref [] in
    M.add_passive_hook m ~interval:1 (fun g ->
        let s = M.stats m in
        let now =
          Xmtsim.Stats.(s.tcu_busy_cycles, s.tcu_memwait_cycles, s.tcu_fuwait_cycles, s.tcu_pswait_cycles)
        in
        let b0, m0, f0, p0 = !last and b1, m1, f1, p1 = now in
        log := (g, b1 - b0, m1 - m0, f1 - f0, p1 - p0) :: !log;
        rebuilt := (g, !busy, in_kind P.Mem + in_kind P.Fence, !stalls, in_kind P.Ps) :: !rebuilt;
        last := now;
        busy := 0;
        stalls := 0);
    ignore (M.run m);
    (List.rev !log, List.rev !rebuilt, Hashtbl.mem heard)
  in
  let reached = Hashtbl.create 4 in
  List.iter
    (fun (kname, image) ->
      List.iter
        (fun config ->
          let what = kname ^ "/" ^ config.C.name in
          let plain, _, _ = counters ~probed:false config image
          and grown, rebuilt, heard = counters ~probed:true config image in
          Tu.check_bool (what ^ " ticks recorded") true (List.length plain > 100);
          Tu.check_int (what ^ " ticks") (List.length plain) (List.length grown);
          let matches against whose =
            List.iter2
              (fun ((g, _, _, _, _) as c) o ->
                if c <> o then Alcotest.failf "%s: counters differ from %s at cluster tick %d" what whose g)
              grown against
          in
          matches plain "a plain run's";
          matches rebuilt "the probe's account";
          List.iter (fun w -> if heard w then Hashtbl.replace reached (kname, w) ()) P.[ Mem; Fence; Ps ])
        [ C.fpga64; C.chip1024 ])
    kernels;
  List.iter
    (fun (kname, w, wname) ->
      Tu.check_bool (kname ^ " waits on " ^ wname) true (Hashtbl.mem reached (kname, w)))
    P.[ ("par_mem", Mem, "memory"); ("publication", Fence, "a fence"); ("compaction", Ps, "a prefix-sum") ]

(* Activity plug-ins keep clock gating on a long serial memory kernel
   and a spawn/psm/serial mix, where every config's governor throttles. *)
let plugins_keep_gating () =
  let a = Core.Workloads.random_array ~seed:5 ~n:2048 ~bound:999 in
  let compile arrays src =
    (Core.Toolchain.compile ~memmap:(Isa.Memmap.of_ints [ ("A", arrays) ]) src).Core.Toolchain.image
  in
  List.iter
    (fun (kname, image) ->
      List.iter
        (fun config ->
          let what = kname ^ "/" ^ config.C.name in
          Tu.check_bool (what ^ " throttled") true
            (Tu.plugins_keep_gating ~sleeps:true what config image
               ~plain:(Tu.observe config image)))
        [ C.tiny; C.fpga64; C.chip1024 ])
    [
      ("ser_mem", compile a (Core.Kernels.ser_mem ~iters:200 ~n:2048));
      ("mix", compile (Array.sub a 0 128) Tu.mix_src);
    ]

(* One governed run (Tu.retuning's plug-ins on a 200-iteration ser_mem,
   chip1024, gated) pinned to the figures recorded before activity
   plug-ins kept clock gating, when they held the cluster clock awake. *)
let governed_run_pinned () =
  let a = Core.Workloads.random_array ~seed:5 ~n:2048 ~bound:999 in
  let compiled =
    Core.Toolchain.compile ~memmap:(Isa.Memmap.of_ints [ ("A", a) ])
      (Core.Kernels.ser_mem ~iters:200 ~n:2048)
  in
  let o = Tu.observe ~observers:[ Tu.retuning ] C.chip1024 compiled.Core.Toolchain.image in
  Tu.check_int "cycles" 27264 o.Tu.cycles;
  Tu.check_string "stats" "b3ab9c0bb677cbe6be246c704e0c27e8" o.Tu.stats;
  Tu.check_string "samples, decisions, profile" "94c060fe359e0a624b16c2e77cf2f83b"
    (Digest.to_hex (Digest.string o.Tu.report))

(* ------------------------------------------------------------------ *)
(* Hot-path allocation: issuing an instruction, a memory round trip and
   an event dispatch allocate nothing, so the minor words a run allocates
   per TCU instruction stay below a small bound (boxed stored values, a
   record per virtual thread and pool warm-up make up the rest).  The
   figures repeat for a given compiler at default GC settings, but are
   not exact counts: they move with the minor-heap size (OCAMLRUNPARAM=s)
   and with the runs made earlier in the process.  An allocation per
   instruction or per package costs several words each. *)

let words_per_tcu_instr f =
  let w0 = Gc.minor_words () in
  let tcu_instrs = f () in
  (Gc.minor_words () -. w0) /. float_of_int tcu_instrs

let hot_path_allocation () =
  let compute = Core.Toolchain.compile (Core.Kernels.par_comp ~threads:256 ~iters:20) in
  let a = Core.Workloads.random_array ~seed:3 ~n:4096 ~bound:999 in
  let memory =
    Core.Toolchain.compile ~memmap:(Isa.Memmap.of_ints [ ("A", a) ])
      (Core.Kernels.par_mem ~threads:256 ~iters:6 ~n:4096)
  in
  let cycle c =
    let m = Core.Toolchain.machine ~config:C.fpga64 c in
    fun () ->
      ignore (M.run m);
      (M.stats m).Xmtsim.Stats.tcu_instrs
  in
  let functional c () =
    (Xmtsim.Functional_mode.run c.Core.Toolchain.image).Xmtsim.Functional_mode.stats
      .Xmtsim.Stats.tcu_instrs
  in
  let below what bound words =
    if words >= bound then Alcotest.failf "%s: %.2f words per TCU instruction" what words
  in
  below "compute-bound, cycle mode" 1.0 (words_per_tcu_instr (cycle compute));
  below "memory-bound, cycle mode" 4.0 (words_per_tcu_instr (cycle memory));
  below "compute-bound, functional mode" 1.0 (words_per_tcu_instr (functional compute))

let () =
  Alcotest.run "xmtsim"
    [
      ( "tags",
        [
          Tu.tc "basic" tags_basic;
          Tu.tc "lru eviction" tags_lru_eviction;
          Tu.tc "zero size" tags_zero_size;
        ] );
      ( "prefetch buffer",
        [
          Tu.tc "fill and hit" pbuf_fill_and_hit;
          Tu.tc "fifo eviction" pbuf_fifo_eviction;
          Tu.tc "lru eviction" pbuf_lru_eviction;
          Tu.tc "waiter" pbuf_waiter;
          Tu.tc "size zero" pbuf_size_zero;
        ] );
      ( "mem",
        [
          Tu.tc "image load" mem_image;
          Tu.tc "stack region" mem_stack_region;
          Tu.tc "faults" mem_faults;
        ] );
      ( "machine/asm",
        [
          Tu.tc "arith" asm_arith;
          Tu.tc "float" asm_float;
          Tu.tc "branches" asm_branches;
          Tu.tc "memory" asm_memory;
          Tu.tc "spawn/join" asm_spawn_join;
          Tu.tc "ps ids and bases" asm_ps_distributes_ids;
          Tu.tc "ps unit increment check" asm_ps_requires_unit_increment;
          Tu.tc "psm atomicity" asm_psm_atomicity;
          Tu.tc "broadcast region violation" asm_region_violation;
          Tu.tc "lw.ro read-only cache" asm_lwro_uses_rocache;
          Tu.tc "functional equals cycle" functional_equals_cycle;
          Tu.tc "functional counts instructions" functional_much_faster;
        ] );
      ( "timing",
        [
          Tu.tc "more TCUs faster" more_tcus_faster;
          Tu.tc "dvfs slows" dvfs_slows_execution;
          Tu.tc "slow dram hurts" slow_dram_hurts_memory_kernel;
          Tu.tc "prefetch buffers help" prefetch_buffers_help;
          Tu.tc "deterministic" deterministic_across_runs;
          Tu.tc "cycle budget" max_cycles_budget;
        ] );
      ( "plugins",
        [
          Tu.tc "hot locations" filter_plugin_hot_locations;
          Tu.tc "activity sampling" activity_plugin_called;
          Tu.tc "sampling interval validated" plugin_interval_validated;
          Tu.tc "trace" trace_captures_instrs;
          Tu.tc "dvfs from plugin" dvfs_from_activity_plugin;
          Tu.tc "execution profile phases" profiler_detects_phases;
          Tu.tc "package trace stations" package_trace_stations;
        ] );
      ("hot path", [ Tu.tc "allocation per TCU instruction" hot_path_allocation ]);
      ( "checkpoint",
        [
          Tu.tc "resumes on another config" checkpoint_across_configs;
          Tu.tc "file roundtrip" checkpoint_file_roundtrip;
          Tu.tc "file checked on load" checkpoint_file_checked;
          Tu.tc "deep stack file roundtrip" checkpoint_deep_stack;
          Tu.tc "taken after the halt restores halted" checkpoint_after_halt;
          Tu.tc "mid-run save/resume" checkpoint_mid_run;
          Tu.tc "telemetry survives restore" checkpoint_preserves_telemetry;
          Tu.tc "quiescence in one run" checkpoint_quiescence_one_run;
        ] );
      ( "governor",
        [
          Tu.tc "throttles and logs" governor_throttles_and_logs;
          Tu.tc "quiet on healthy run" governor_recovers;
        ] );
      ( "clock gating",
        [
          Tu.tc "sim.clock.* metrics" gating_exports_clock_metrics;
          Tu.tc "short-regfile snapshot restores" restore_short_regfile_snapshot;
          Tu.tc "halt/restore/rerun not truncated" halt_restore_rerun;
          Tu.tc "set_gating after start rejected" gating_rejects_late_toggle;
          Tu.tc "serial cluster-sweep skip is exact" serial_skip_exact;
          Tu.tc "wait counters are exact at every tick" wait_counters_every_tick;
          Tu.tc "governed run matches the ungated-plug-in figures" governed_run_pinned;
          Tu.tc "activity plug-ins keep clock gating" plugins_keep_gating;
        ] );
      ( "timing verification",
        [
          Tu.tc "ALU is one cycle" timing_alu_is_one_cycle;
          Tu.tc "shared FU latencies" timing_shared_fu_latencies;
          Tu.tc "master cache" timing_master_cache;
          Tu.tc "TCU load round trip" timing_tcu_load_round_trip;
          Tu.tc "DVFS scales linearly" timing_dvfs_scales_linearly;
        ] );
      ( "phase sampling",
        [
          Tu.tc "advance pauses at boundaries" functional_advance_pauses_at_boundaries;
          Tu.tc "functional->cycle handoff" functional_snapshot_handoff;
          Tu.tc "estimate accuracy" phase_sampling_accuracy;
          Tu.tc "one interval is the whole run" phase_sampling_one_interval;
          Tu.tc "bad interval and cut-off sample rejected" phase_sampling_rejects;
        ] );
      ( "power/thermal",
        [
          Tu.tc "power sampling" power_sampling;
          Tu.tc "per-cluster attribution" per_cluster_activity_attribution;
          Tu.tc "thermal model" thermal_heats_and_cools;
          Tu.tc "floorplan render" floorplan_renders;
        ] );
    ]
