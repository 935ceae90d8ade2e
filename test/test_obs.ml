(** Tests for the Obs telemetry layer (metrics registry, Chrome-trace
    tracer, JSON round-trip) and its wiring into the simulator. *)

module J = Obs.Json
module M = Obs.Metrics
module T = Obs.Tracer

(* ------------------------------------------------------------------ *)
(* JSON *)

let json_roundtrip () =
  let v =
    J.Obj
      [
        ("a", J.Int 42);
        ("b", J.List [ J.Str "x\"y\n"; J.Bool true; J.Null ]);
        ("c", J.Float 2.5);
        ("nested", J.Obj [ ("deep", J.List [ J.Int (-7) ]) ]);
      ]
  in
  let s = J.to_string v in
  Tu.check_bool "compact round-trips" true (J.of_string s = v);
  let p = J.to_string ~pretty:true v in
  Tu.check_bool "pretty round-trips" true (J.of_string p = v)

let json_string_escaping () =
  let enc s = J.to_string (J.Str s) in
  Tu.check_string "quote" "\"x\\\"y\"" (enc "x\"y");
  Tu.check_string "backslash" "\"a\\\\b\"" (enc "a\\b");
  Tu.check_string "newline" "\"a\\nb\"" (enc "a\nb");
  Tu.check_string "cr+tab" "\"\\r\\t\"" (enc "\r\t");
  Tu.check_string "control chars" "\"\\u0001\\u001f\"" (enc "\x01\x1f");
  let tricky = "a\"b\\c\nd\re\tf\x01g\x1fh" in
  Tu.check_bool "tricky round-trips" true (J.of_string (enc tricky) = J.Str tricky);
  (* object keys go through the same escaper *)
  let o = J.Obj [ ("k\"\n", J.Int 1) ] in
  Tu.check_bool "key round-trips" true (J.of_string (J.to_string o) = o);
  Tu.check_bool "pretty key round-trips" true
    (J.of_string (J.to_string ~pretty:true o) = o)

let json_rejects_garbage () =
  let bad s = match J.of_string s with exception J.Parse_error _ -> true | _ -> false in
  Tu.check_bool "trailing" true (bad "{} x");
  Tu.check_bool "unterminated" true (bad "\"abc");
  Tu.check_bool "bare word" true (bad "flase")

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let registry_counters_gauges () =
  let reg = M.create () in
  let c = M.counter reg "sim.cycles" in
  M.inc ~by:10 c;
  M.inc c;
  Tu.check_int "counter read" 11 (Option.get (M.counter_value reg "sim.cycles"));
  (* same name + labels = same instrument; different labels = distinct *)
  let h = M.counter reg ~labels:[ ("outcome", "hit") ] "sim.cache.accesses" in
  let m = M.counter reg ~labels:[ ("outcome", "miss") ] "sim.cache.accesses" in
  M.inc ~by:3 h;
  M.inc ~by:2 (M.counter reg ~labels:[ ("outcome", "hit") ] "sim.cache.accesses");
  M.inc m;
  Tu.check_int "labelled hit" 5
    (Option.get (M.counter_value reg ~labels:[ ("outcome", "hit") ] "sim.cache.accesses"));
  Tu.check_int "labelled miss" 1
    (Option.get (M.counter_value reg ~labels:[ ("outcome", "miss") ] "sim.cache.accesses"));
  M.set (M.gauge reg "host.events_per_sec") 123.5;
  Tu.check_bool "gauge read" true
    (M.gauge_value reg "host.events_per_sec" = Some 123.5);
  (* kind mismatch is rejected *)
  Tu.check_bool "kind clash raises" true
    (match M.gauge reg "sim.cycles" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let registry_merge () =
  let a = M.create () and b = M.create () in
  M.inc ~by:5 (M.counter a "n");
  M.inc ~by:7 (M.counter b "n");
  M.set (M.gauge b "g") 2.0;
  M.merge ~into:a b;
  Tu.check_int "counters add" 12 (Option.get (M.counter_value a "n"));
  Tu.check_bool "gauge copied" true (M.gauge_value a "g" = Some 2.0)

let histogram_bucketing () =
  let reg = M.create () in
  let h = M.histogram reg ~buckets:[ 1.0; 2.0; 5.0 ] "lat" in
  List.iter (M.observe h) [ 0.5; 1.0; 1.5; 2.0; 4.9; 5.0; 100.0 ];
  (* counts per bucket: <=1 -> 2, <=2 -> 2, <=5 -> 2, overflow -> 1 *)
  Tu.check_int "bucket <=1" 2 h.M.h_counts.(0);
  Tu.check_int "bucket <=2" 2 h.M.h_counts.(1);
  Tu.check_int "bucket <=5" 2 h.M.h_counts.(2);
  Tu.check_int "overflow" 1 h.M.h_counts.(3);
  Tu.check_int "count" 7 h.M.h_count;
  (* merge adds bin counts *)
  let reg2 = M.create () in
  let h2 = M.histogram reg2 ~buckets:[ 1.0; 2.0; 5.0 ] "lat" in
  M.observe h2 0.1;
  M.merge ~into:reg2 reg;
  Tu.check_int "merged bucket <=1" 3 h2.M.h_counts.(0);
  Tu.check_int "merged count" 8 h2.M.h_count

let registry_json () =
  let reg = M.create () in
  M.inc ~by:9 (M.counter reg ~labels:[ ("k", "v") ] "c");
  M.set (M.gauge reg "g") 0.25;
  M.observe (M.histogram reg ~buckets:[ 10.0 ] "h") 3.0;
  let j = J.of_string (J.to_string (M.to_json reg)) in
  Tu.check_bool "schema" true
    (J.member "schema" j = Some (J.Str "xmt.metrics.v2"));
  let metrics = Option.get (J.to_list (Option.get (J.member "metrics" j))) in
  Tu.check_int "three metrics" 3 (List.length metrics);
  let c = List.find (fun m -> J.member "name" m = Some (J.Str "c")) metrics in
  Tu.check_bool "counter value" true (J.member "value" c = Some (J.Int 9));
  Tu.check_bool "labels survive" true
    (J.member "labels" c = Some (J.Obj [ ("k", J.Str "v") ]));
  (* v2: histograms carry min/max and percentile estimates *)
  let h = List.find (fun m -> J.member "name" m = Some (J.Str "h")) metrics in
  List.iter
    (fun k ->
      Tu.check_bool (k ^ " present") true (J.member k h = Some (J.Float 3.0)))
    [ "min"; "max"; "p50"; "p95"; "p99" ]

let histogram_percentiles () =
  let reg = M.create () in
  let h = M.histogram reg ~buckets:[ 1.0; 2.0; 5.0; 10.0 ] "lat" in
  Tu.check_bool "empty -> 0" true (M.percentile h 0.95 = 0.0);
  (* all mass on one value: every percentile is clamped to it *)
  for _ = 1 to 10 do M.observe h 4.0 done;
  List.iter
    (fun q ->
      Tu.check_bool (Printf.sprintf "p%.0f exact" (q *. 100.)) true
        (M.percentile h q = 4.0))
    [ 0.5; 0.95; 0.99 ];
  (* spread mass: estimates are monotone and bounded by observed range *)
  let h2 = M.histogram reg ~buckets:[ 1.0; 2.0; 5.0; 10.0 ] "lat2" in
  List.iter (M.observe h2) [ 0.5; 0.5; 1.5; 1.5; 3.0; 4.0; 8.0; 9.0; 30.0 ];
  let p50 = M.percentile h2 0.5
  and p95 = M.percentile h2 0.95
  and p99 = M.percentile h2 0.99 in
  Tu.check_bool "monotone" true (p50 <= p95 && p95 <= p99);
  Tu.check_bool "bounded below" true (p50 >= 0.5);
  Tu.check_bool "bounded above by max" true (p99 <= 30.0);
  Tu.check_bool "p50 in the middle buckets" true (p50 >= 1.0 && p50 <= 5.0);
  (* overflow-bucket estimate clamps to the observed max, not infinity *)
  Tu.check_bool "p99 reaches overflow" true (p99 > 9.0)

let histogram_edges () =
  let reg = M.create () in
  (* empty histogram: every percentile is 0, and the JSON export degrades
     the infinite min/max sentinels to 0 instead of emitting non-JSON *)
  let h = M.histogram reg ~buckets:[ 1.0; 10.0 ] "lat" in
  List.iter
    (fun q ->
      Tu.check_bool (Printf.sprintf "empty p%.0f" (q *. 100.)) true
        (M.percentile h q = 0.0))
    [ 0.0; 0.5; 0.99; 1.0 ];
  (match J.member "metrics" (M.to_json reg) with
  | Some (J.List [ m ]) ->
    Tu.check_bool "empty min exports 0" true (J.member "min" m = Some (J.Float 0.0));
    Tu.check_bool "empty max exports 0" true (J.member "max" m = Some (J.Float 0.0));
    Tu.check_bool "empty count" true (J.member "count" m = Some (J.Int 0))
  | _ -> Alcotest.fail "expected one metric");
  (* single sample: min = max = sample, every percentile collapses to it *)
  M.observe h 5.0;
  Tu.check_bool "single min" true (h.M.h_min = 5.0);
  Tu.check_bool "single max" true (h.M.h_max = 5.0);
  List.iter
    (fun q ->
      Tu.check_bool (Printf.sprintf "single p%.0f" (q *. 100.)) true
        (M.percentile h q = 5.0))
    [ 0.5; 0.95; 0.99 ];
  (* single sample in the overflow bucket: still clamped to the sample *)
  let h2 = M.histogram reg ~buckets:[ 1.0 ] "lat2" in
  M.observe h2 100.0;
  Tu.check_bool "overflow single p50" true (M.percentile h2 0.5 = 100.0);
  (* out-of-range q is clamped, not an error *)
  Tu.check_bool "q below 0" true (M.percentile h (-1.0) = 5.0);
  Tu.check_bool "q above 1" true (M.percentile h 2.0 = 5.0)

(* ------------------------------------------------------------------ *)
(* Clock: the one host clock behind every reported duration *)

let clock_monotonic () =
  let prev = ref (Obs.Clock.now ()) in
  for _ = 1 to 100_000 do
    let t = Obs.Clock.now () in
    if t < !prev then Alcotest.failf "now went back: %.9f after %.9f" t !prev;
    prev := t
  done;
  let (), secs = Obs.Clock.wall (fun () -> ()) in
  Tu.check_bool "wall >= 0" true (secs >= 0.0);
  Tu.check_bool "elapsed_since >= 0" true
    (Obs.Clock.elapsed_since (Obs.Clock.now ()) >= 0.0);
  Tu.check_bool "elapsed_since a later origin is 0" true
    (Obs.Clock.elapsed_since (Obs.Clock.now () +. 10.0) = 0.0);
  (* default-[t] stream records (host ms since create), a few ms apart *)
  let buf = Buffer.create 4096 in
  let s = Obs.Stream.create (Obs.Stream.buffer_sink buf) in
  for i = 1 to 200 do
    if i mod 50 = 0 then Unix.sleepf 0.002;
    Obs.Stream.emit s ~typ:"tick" [ ("i", J.Int i) ]
  done;
  Obs.Stream.close s;
  let ts =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (( <> ) "")
    |> List.map (fun l ->
           match J.member "t" (J.of_string l) with
           | Some (J.Int t) -> t
           | _ -> Alcotest.failf "no integer t in %s" l)
  in
  Tu.check_int "open + 200 + close" 202 (List.length ts);
  ignore
    (List.fold_left
       (fun prev t ->
         if t < prev then Alcotest.failf "stream t went back: %d after %d" t prev;
         t)
       0 ts);
  Tu.check_bool "t advances" true (List.nth ts 201 >= 8)

(* ------------------------------------------------------------------ *)
(* Tracer: golden structural properties of the emitted trace *)

let trace_events_of_string s =
  match J.of_string s with
  | J.List es -> es
  | _ -> Alcotest.fail "trace is not a JSON array"

let check_trace_invariants name events =
  (* monotone ts over non-metadata events; B/E balanced per (pid,tid) *)
  let prev = ref min_int in
  let stacks = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let get k = Option.get (J.member k e) in
      let ph = Option.get (J.to_str (get "ph")) in
      if ph <> "M" then begin
        let ts = Option.get (J.to_int (get "ts")) in
        if ts < !prev then
          Alcotest.failf "%s: ts not monotone (%d after %d)" name ts !prev;
        prev := ts;
        let key = (J.to_int (get "pid"), J.to_int (get "tid")) in
        let depth = try Hashtbl.find stacks key with Not_found -> 0 in
        if ph = "B" then Hashtbl.replace stacks key (depth + 1);
        if ph = "E" then begin
          if depth <= 0 then Alcotest.failf "%s: E without B" name;
          Hashtbl.replace stacks key (depth - 1)
        end
      end)
    events;
  Hashtbl.iter
    (fun _ d -> if d <> 0 then Alcotest.failf "%s: unclosed B span" name)
    stacks

let tracer_golden () =
  let tr = T.create () in
  T.name_process tr ~pid:1 "sim";
  T.name_thread tr ~pid:1 ~tid:0 "main";
  (* emitted out of ts order on purpose: to_json must sort *)
  T.complete tr ~ts:50 ~dur:10 ~tid:1 ~cat:"tcu" "memwait";
  T.begin_span tr ~ts:0 ~tid:0 ~args:[ ("n", T.A_int 3) ] "spawn";
  T.instant tr ~ts:20 ~tid:1 "icn-inject";
  T.counter tr ~ts:30 "activity" [ ("compute", 5.0); ("memory", 2.0) ];
  T.end_span tr ~ts:100 ~tid:0 ();
  Tu.check_int "length counts non-metadata" 5 (T.length tr);
  let events = trace_events_of_string (T.to_string tr) in
  Tu.check_int "all serialized" 7 (List.length events);
  check_trace_invariants "golden" events;
  (* metadata first, then ts order: B@0 i@20 C@30 X@50 E@100 *)
  let phs =
    List.filter_map (fun e -> J.to_str (Option.get (J.member "ph" e))) events
  in
  Tu.check_bool "phase order" true
    (phs = [ "M"; "M"; "B"; "i"; "C"; "X"; "E" ])

(* ------------------------------------------------------------------ *)
(* Simulator wiring *)

let src =
  {|
int A[32];
int total = 0;
int main(void) {
  spawn(0, 31) {
    int inc = A[$];
    psm(inc, total);
  }
  print_int(total);
  return 0;
}
|}

let stats_export_e2e () =
  (* the same library code path xmtsim --stats-json serializes: export,
     emit, parse back, compare with the text --stats report *)
  let memmap = Isa.Memmap.of_ints [ ("A", Array.make 32 3) ] in
  let compiled = Core.Toolchain.compile ~memmap src in
  let r = Core.Toolchain.run_cycle ~config:Xmtsim.Config.tiny compiled in
  Tu.check_string "output" "96" r.Core.Toolchain.output;
  let reg = M.create () in
  Xmtsim.Stats.export r.Core.Toolchain.stats reg;
  Tu.check_bool ">= 15 distinct metrics" true (List.length (M.distinct_names reg) >= 15);
  let j = J.of_string (J.to_string (M.to_json reg)) in
  let metrics = Option.get (J.to_list (Option.get (J.member "metrics" j))) in
  let value_of name =
    List.find_map
      (fun m ->
        if J.member "name" m = Some (J.Str name) then J.to_int (Option.get (J.member "value" m))
        else None)
      metrics
  in
  (* round-trip matches the machine and the text report's cycle count *)
  Tu.check_int "sim.cycles round-trips" r.Core.Toolchain.cycles
    (Option.get (value_of "sim.cycles"));
  let text = Xmtsim.Stats.to_string r.Core.Toolchain.stats in
  let expected_line = Printf.sprintf "cycles:            %d" r.Core.Toolchain.cycles in
  Tu.check_bool "text --stats agrees" true
    (List.exists
       (fun l -> String.trim l = expected_line)
       (String.split_on_char '\n' text));
  Tu.check_bool "icn packets counted" true
    (Option.get (value_of "sim.icn.packets") > 0)

(* The request-latency bucket, computed from a bit length, is the first
   bound >= v (the overflow past the last), as walking the bounds finds it. *)
let latency_bucket_matches_bounds () =
  let bounds = Xmtsim.Stats.lat_bounds in
  let rec walk v i = if i < Array.length bounds && v > bounds.(i) then walk v (i + 1) else i in
  for v = -2 to 5000 do
    Tu.check_int (Printf.sprintf "bucket of %d" v) (walk v 0) (Xmtsim.Stats.bucket v)
  done

let latency_histograms_e2e () =
  (* the memory-request lifecycle shows up as per-(cluster, module)
     latency histograms with percentile estimates in the v2 export *)
  let memmap = Isa.Memmap.of_ints [ ("A", Array.make 32 3) ] in
  let compiled = Core.Toolchain.compile ~memmap src in
  let r = Core.Toolchain.run_cycle ~config:Xmtsim.Config.tiny compiled in
  let reg = M.create () in
  Xmtsim.Stats.export r.Core.Toolchain.stats reg;
  let j = J.of_string (J.to_string (M.to_json reg)) in
  let metrics = Option.get (J.to_list (Option.get (J.member "metrics" j))) in
  let lat =
    List.filter
      (fun m -> J.member "name" m = Some (J.Str "sim.mem.request_latency"))
      metrics
  in
  Tu.check_bool "has latency histograms" true (lat <> []);
  let labelled =
    List.filter
      (fun m ->
        match J.member "labels" m with
        | Some (J.Obj fields) ->
          List.mem_assoc "cluster" fields && List.mem_assoc "module" fields
        | _ -> false)
      lat
  in
  Tu.check_bool "per-(cluster,module) series" true (labelled <> []);
  (* every lifecycle stage has an aggregate series, and totals observed
     requests with sane percentile fields *)
  let stage_of m =
    match J.member "labels" m with
    | Some (J.Obj fields) -> (
      match List.assoc_opt "stage" fields with Some (J.Str s) -> Some s | _ -> None)
    | _ -> None
  in
  let stages = List.filter_map stage_of lat in
  List.iter
    (fun s -> Tu.check_bool ("stage " ^ s) true (List.mem s stages))
    [ "icn_wait"; "service_hit"; "reply"; "total" ];
  let total_agg =
    List.find
      (fun m ->
        stage_of m = Some "total"
        &&
        match J.member "labels" m with
        | Some (J.Obj fields) -> not (List.mem_assoc "cluster" fields)
        | _ -> false)
      lat
  in
  Tu.check_bool "total count > 0" true
    (match J.member "count" total_agg with Some (J.Int n) -> n > 0 | _ -> false);
  let num k =
    Option.get (J.to_float (Option.get (J.member k total_agg)))
  in
  Tu.check_bool "round trips take cycles" true (num "max" >= 1.0);
  Tu.check_bool "percentiles ordered" true
    (num "p50" <= num "p95" && num "p95" <= num "p99");
  Tu.check_bool "percentiles within range" true
    (num "p50" >= num "min" && num "p99" <= num "max")

let machine_trace_e2e () =
  let memmap = Isa.Memmap.of_ints [ ("A", Array.make 32 1) ] in
  let compiled = Core.Toolchain.compile ~memmap src in
  let m = Core.Toolchain.machine ~config:Xmtsim.Config.tiny compiled in
  let tr = T.create () in
  let spans = Xmtsim.Trace.attach_spans m tr in
  let r = Xmtsim.Machine.run m in
  Tu.check_bool "halted" true r.Xmtsim.Machine.halted;
  Xmtsim.Trace.flush_spans spans;
  let events = trace_events_of_string (T.to_string tr) in
  check_trace_invariants "machine trace" events;
  let phs = List.filter_map (fun e -> J.to_str (Option.get (J.member "ph" e))) events in
  Tu.check_bool "has spawn B span" true (List.mem "B" phs);
  Tu.check_bool "has X spans" true (List.mem "X" phs);
  Tu.check_bool "has package instants" true (List.mem "i" phs)

let profiler_order_and_json () =
  let memmap = Isa.Memmap.of_ints [ ("A", Array.make 32 1) ] in
  let compiled = Core.Toolchain.compile ~memmap src in
  let m = Core.Toolchain.machine ~config:Xmtsim.Config.tiny compiled in
  let p = Xmtsim.Plugin.attach_profiler ~interval:50 m in
  let _ = Xmtsim.Machine.run m in
  let samples = Xmtsim.Plugin.samples_in_order p in
  Tu.check_bool "has samples" true (List.length samples >= 2);
  let cycles = List.map (fun s -> s.Xmtsim.Plugin.ps_cycle) samples in
  Tu.check_bool "oldest-first" true (List.sort compare cycles = cycles);
  (* JSON export agrees with the normalized order *)
  match Xmtsim.Plugin.profile_to_json p with
  | J.List objs ->
    let jcycles =
      List.map (fun o -> Option.get (J.to_int (Option.get (J.member "cycle" o)))) objs
    in
    Tu.check_bool "json same order" true (jcycles = cycles)
  | _ -> Alcotest.fail "profile_to_json not a list"

let trace_limit_detaches () =
  let memmap = Isa.Memmap.of_ints [ ("A", Array.make 32 1) ] in
  let compiled = Core.Toolchain.compile ~memmap src in
  let m = Core.Toolchain.machine ~config:Xmtsim.Config.tiny compiled in
  let buf = Buffer.create 256 in
  Xmtsim.Trace.attach
    ~filter:{ Xmtsim.Trace.all with Xmtsim.Trace.limit = 5 }
    m
    (Buffer.add_string buf);
  let _ = Xmtsim.Machine.run m in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents buf))
  in
  Tu.check_int "exactly limit lines" 5 (List.length lines)

let trace_detach_then_reattach () =
  let memmap = Isa.Memmap.of_ints [ ("A", Array.make 32 1) ] in
  let compiled = Core.Toolchain.compile ~memmap src in
  let m = Core.Toolchain.machine ~config:Xmtsim.Config.tiny compiled in
  let limited = { Xmtsim.Trace.all with Xmtsim.Trace.limit = 5 } in
  let b_limited = Buffer.create 256 and b_full = Buffer.create 4096 in
  Xmtsim.Trace.attach ~filter:limited m (Buffer.add_string b_limited);
  Xmtsim.Trace.attach m (Buffer.add_string b_full);
  let count b =
    List.length
      (List.filter (fun l -> l <> "")
         (String.split_on_char '\n' (Buffer.contents b)))
  in
  (* first segment stops on a cycle budget, mid-run *)
  let r1 = Xmtsim.Machine.run ~max_cycles:40 m in
  Tu.check_bool "segment 1 incomplete" false r1.Xmtsim.Machine.halted;
  let full_seg1 = count b_full in
  (* a fresh limited trace attached between segments records from here *)
  let b_re = Buffer.create 256 in
  Xmtsim.Trace.attach ~filter:limited m (Buffer.add_string b_re);
  let r2 = Xmtsim.Machine.run m in
  Tu.check_bool "resumed to halt" true r2.Xmtsim.Machine.halted;
  (* the limit-detached trace stayed detached across the resume... *)
  Tu.check_int "limited trace capped" 5 (count b_limited);
  (* ...the unlimited one kept collecting... *)
  Tu.check_bool "unlimited grew in segment 2" true (count b_full > full_seg1);
  Tu.check_bool "unlimited outran the cap" true (count b_full > 5);
  (* ...and the re-attached one captured the second segment up to its
     own limit *)
  Tu.check_int "re-attached trace capped" 5 (count b_re)

let compiler_timings () =
  let out = Compiler.Driver.compile src in
  let names = List.map (fun pt -> pt.Compiler.Driver.pt_pass) out.Compiler.Driver.timings in
  List.iter
    (fun expected ->
      Tu.check_bool (expected ^ " timed") true (List.mem expected names))
    [ "frontend"; "outline"; "lower"; "opt"; "regalloc"; "codegen"; "postpass" ];
  List.iter
    (fun pt ->
      Tu.check_bool (pt.Compiler.Driver.pt_pass ^ " nonneg ms") true
        (pt.Compiler.Driver.pt_ms >= 0.0);
      Tu.check_bool (pt.Compiler.Driver.pt_pass ^ " sized") true
        (pt.Compiler.Driver.pt_size_after > 0))
    out.Compiler.Driver.timings;
  (* the table renders one line per pass + header + total *)
  let table = Compiler.Driver.timings_to_string out.Compiler.Driver.timings in
  Tu.check_int "table lines" (List.length out.Compiler.Driver.timings + 2)
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' table)))

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Tu.tc "roundtrip" json_roundtrip;
          Tu.tc "string escaping" json_string_escaping;
          Tu.tc "rejects garbage" json_rejects_garbage;
        ] );
      ( "metrics",
        [
          Tu.tc "counters/gauges" registry_counters_gauges;
          Tu.tc "merge" registry_merge;
          Tu.tc "histogram bucketing" histogram_bucketing;
          Tu.tc "histogram percentiles" histogram_percentiles;
          Tu.tc "histogram edge cases" histogram_edges;
          Tu.tc "json export" registry_json;
        ] );
      ("clock", [ Tu.tc "monotonic reads and stream t" clock_monotonic ]);
      ("tracer", [ Tu.tc "golden chrome-trace" tracer_golden ]);
      ( "wiring",
        [
          Tu.tc "stats export e2e" stats_export_e2e;
          Tu.tc "latency histograms e2e" latency_histograms_e2e;
          Tu.tc "latency bucket matches the bounds" latency_bucket_matches_bounds;
          Tu.tc "machine trace e2e" machine_trace_e2e;
          Tu.tc "profiler order + json" profiler_order_and_json;
          Tu.tc "trace limit detaches" trace_limit_detaches;
          Tu.tc "trace detach then re-attach" trace_detach_then_reattach;
          Tu.tc "compiler pass timings" compiler_timings;
        ] );
    ]
