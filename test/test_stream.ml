(** Live telemetry streaming (Obs.Stream, xmt.events.v1): bus contract
    (seq, required keys, write-on-emit), rollup windows,
    canonicalization, the machine heartbeat producer's passivity and the
    campaign engine's serial-vs-parallel stream determinism. *)

module J = Obs.Json
module S = Obs.Stream
module C = Xmtsim.Config
module T = Core.Toolchain

let lines buf =
  List.filter
    (fun l -> String.trim l <> "")
    (String.split_on_char '\n' (Buffer.contents buf))

let records buf =
  List.map
    (fun l ->
      match S.validate_line l with
      | Ok j -> j
      | Error e -> Alcotest.failf "invalid stream line %S: %s" l e)
    (lines buf)

let typ j =
  match J.member "type" j with Some (J.Str s) -> s | _ -> "?"

let seq j = Option.get (Option.bind (J.member "seq" j) J.to_int)

(* ---- the bus contract ---- *)

let emit_and_seq () =
  let buf = Buffer.create 256 in
  let s = S.create (S.buffer_sink buf) in
  S.emit s ~typ:"a" ~t:10 [ ("k", J.Int 1) ];
  S.emit s ~typ:"b" [];
  S.close s;
  let rs = records buf in
  Tu.check_bool "open/a/b/close" true
    (List.map typ rs = [ "stream.open"; "a"; "b"; "stream.close" ]);
  (* seq is dense and monotonic; every record validates *)
  List.iteri (fun i j -> Tu.check_int "seq dense" i (seq j)) rs;
  (* explicit t is carried verbatim *)
  Tu.check_bool "t carried" true
    (Option.bind (J.member "t" (List.nth rs 1)) J.to_int = Some 10);
  (* the open record tags the schema *)
  Tu.check_bool "schema tag" true
    (J.member "schema" (List.hd rs) = Some (J.Str "xmt.events.v1"));
  (* close reports totals *)
  let close = List.nth rs 3 in
  Tu.check_bool "close totals" true
    (Option.bind (J.member "emitted" close) J.to_int = Some 3);
  (* emitting after close is a no-op *)
  S.emit s ~typ:"late" [];
  Tu.check_int "no late records" 4 (List.length (records buf))

(* there is no queue: each record is in the sink when [emit] returns *)
let written_on_emit () =
  let buf = Buffer.create 256 in
  let s = S.create (S.buffer_sink buf) in
  Tu.check_int "open written by create" 1 (List.length (lines buf));
  for i = 1 to 5 do
    S.emit s ~typ:"x" ~t:i [];
    Tu.check_int "written by emit" (i + 1) (List.length (lines buf));
    Tu.check_int "last record's seq" i (seq (List.nth (records buf) i))
  done;
  S.close s

let reserved_sinks () =
  (* null sink still counts emissions *)
  let s = S.create (S.null_sink ()) in
  S.emit s ~typ:"x" [];
  Tu.check_int "emitted" 2 (S.emitted s);
  S.close s

(* ---- rollups ---- *)

let rollup_windows () =
  let buf = Buffer.create 256 in
  let s = S.create (S.buffer_sink buf) in
  let r = S.rollup ~window:2 s "hb" in
  (* 5 observations at window 2: two full windows + one trailing *)
  for i = 1 to 5 do
    S.observe r ~t:(i * 10) [ ("v", float_of_int i); ("w", 1.0) ]
  done;
  S.close_rollup r;
  S.close s;
  let ws = List.filter (fun j -> typ j = "window.close") (records buf) in
  Tu.check_int "three windows" 3 (List.length ws);
  let w0 = List.hd ws in
  Tu.check_bool "window name" true (J.member "window" w0 = Some (J.Str "hb"));
  Tu.check_bool "count" true (Option.bind (J.member "count" w0) J.to_int = Some 2);
  Tu.check_bool "span" true
    (Option.bind (J.member "t0" w0) J.to_int = Some 10
    && Option.bind (J.member "t1" w0) J.to_int = Some 20);
  let metric w key field =
    Option.bind (J.member "metrics" w) (fun m ->
        Option.bind (J.member key m) (fun v ->
            Option.bind (J.member field v) J.to_float))
  in
  Tu.check_bool "mean/min/max" true
    (metric w0 "v" "mean" = Some 1.5
    && metric w0 "v" "min" = Some 1.0
    && metric w0 "v" "max" = Some 2.0);
  (* the trailing window carries the leftover observation *)
  let w2 = List.nth ws 2 in
  Tu.check_bool "trailing count" true
    (Option.bind (J.member "count" w2) J.to_int = Some 1);
  Tu.check_bool "window indices" true
    (List.map (fun w -> Option.bind (J.member "index" w) J.to_int) ws
    = [ Some 0; Some 1; Some 2 ])

let empty_rollup_is_silent () =
  let buf = Buffer.create 256 in
  let s = S.create (S.buffer_sink buf) in
  let r = S.rollup ~window:4 s "hb" in
  S.close_rollup r;
  S.close s;
  Tu.check_bool "no window.close" true
    (List.for_all (fun j -> typ j <> "window.close") (records buf))

(* ---- validation ---- *)

let validation_errors () =
  let bad l =
    match S.validate_line l with Ok _ -> false | Error _ -> true
  in
  Tu.check_bool "garbage" true (bad "not json");
  Tu.check_bool "non-object" true (bad "[1,2]");
  Tu.check_bool "missing type" true (bad {|{"seq":0,"t":0}|});
  Tu.check_bool "non-string type" true (bad {|{"type":1,"seq":0,"t":0}|});
  Tu.check_bool "missing seq" true (bad {|{"type":"x","t":0}|});
  Tu.check_bool "missing t" true (bad {|{"type":"x","seq":0}|});
  Tu.check_bool "minimal ok" true
    (not (bad {|{"type":"x","seq":0,"t":0}|}));
  Tu.check_bool "required keys" true (S.required_keys = [ "type"; "seq"; "t" ])

(* a file holding one whole stream must be lossless: dense seq and a
   close total that counts the records before it *)
let whole_stream_lossless () =
  let ok rs =
    match S.check_whole (List.map J.of_string rs) with Ok () -> true | Error _ -> false
  in
  let opn = {|{"type":"stream.open","seq":0,"t":0,"schema":"xmt.events.v1"}|} in
  let buf = Buffer.create 256 in
  let s = S.create (S.buffer_sink buf) in
  S.emit s ~typ:"x" [];
  S.close s;
  Tu.check_bool "a closed stream passes" true (ok (lines buf));
  Tu.check_bool "complete" true
    (ok [ opn; {|{"type":"x","seq":1,"t":0}|}; {|{"type":"stream.close","seq":2,"t":0,"emitted":2}|} ]);
  Tu.check_bool "gap rejected" false
    (ok [ opn; {|{"type":"x","seq":2,"t":0}|}; {|{"type":"stream.close","seq":3,"t":0,"emitted":2}|} ]);
  Tu.check_bool "wrong total rejected" false
    (ok [ opn; {|{"type":"x","seq":1,"t":0}|}; {|{"type":"stream.close","seq":2,"t":0,"emitted":3}|} ]);
  Tu.check_bool "missing total rejected" false
    (ok [ opn; {|{"type":"stream.close","seq":1,"t":0}|} ]);
  (* a served client's file starts mid-stream; a cut-off one has no close *)
  Tu.check_bool "mid-stream file unchecked" true
    (ok [ {|{"type":"job.start","seq":7,"t":0,"job":0,"jseq":0}|} ]);
  Tu.check_bool "unclosed file unchecked" true
    (ok [ opn; {|{"type":"x","seq":5,"t":0}|} ])

let canonicalize_reorders () =
  (* the same per-job records interleaved differently plus different
     host-dependent fields canonicalize to byte-identical text *)
  let serial =
    String.concat "\n"
      [
        {|{"type":"stream.open","seq":0,"t":0,"schema":"xmt.events.v1"}|};
        {|{"type":"job.start","seq":1,"t":3,"job":0,"jseq":0,"name":"a"}|};
        {|{"type":"job.done","seq":2,"t":9,"job":0,"jseq":1,"name":"a","cycles":7,"wall_seconds":0.5}|};
        {|{"type":"campaign.progress","seq":3,"t":9,"completed":1,"total":2,"running":0}|};
        {|{"type":"job.start","seq":4,"t":10,"job":1,"jseq":0,"name":"b"}|};
        {|{"type":"job.done","seq":5,"t":12,"job":1,"jseq":1,"name":"b","cycles":9,"wall_seconds":0.1}|};
        {|{"type":"stream.close","seq":6,"t":12,"emitted":7}|};
      ]
  in
  let parallel =
    String.concat "\n"
      [
        {|{"type":"stream.open","seq":0,"t":0,"schema":"xmt.events.v1"}|};
        {|{"type":"job.start","seq":1,"t":1,"job":1,"jseq":0,"name":"b"}|};
        {|{"type":"job.start","seq":2,"t":1,"job":0,"jseq":0,"name":"a"}|};
        {|{"type":"job.done","seq":3,"t":4,"job":1,"jseq":1,"name":"b","cycles":9,"wall_seconds":0.9}|};
        {|{"type":"campaign.progress","seq":4,"t":4,"completed":1,"total":2,"running":1}|};
        {|{"type":"job.done","seq":5,"t":5,"job":0,"jseq":1,"name":"a","cycles":7,"wall_seconds":0.2}|};
        {|{"type":"stream.close","seq":6,"t":5,"emitted":7}|};
      ]
  in
  let cs = S.canonicalize_lines serial and cp = S.canonicalize_lines parallel in
  Tu.check_string "canonical forms agree" cs cp;
  Tu.check_bool "non-empty" true (String.length cs > 0);
  (* host-dependent keys are gone from the canonical form *)
  Tu.check_bool "no wall_seconds" true
    (not
       (List.exists
          (fun l ->
            match J.of_string l with
            | j -> J.member "wall_seconds" j <> None || J.member "seq" j <> None
            | exception J.Parse_error _ -> true)
          (List.filter (fun l -> l <> "") (String.split_on_char '\n' cs))));
  (* the (job, jseq) key a served client resumes after *)
  let key text = S.job_key (J.of_string text) in
  Tu.check_bool "job + jseq" true (key {|{"job":3,"jseq":7}|} = Some (3, 7));
  Tu.check_bool "no jseq" true (key {|{"job":3}|} = None);
  Tu.check_bool "non-integer jseq" true (key {|{"job":3,"jseq":"x"}|} = None);
  Tu.check_bool "not an object" true (key "[1,2]" = None);
  (* a job record without jseq sorts after that job's sequenced records,
     and such records keep their stream order *)
  let canon =
    S.canonicalize_lines
      (String.concat "\n"
         [
           {|{"type":"job.note","seq":0,"t":0,"job":0,"n":1}|};
           {|{"type":"job.done","seq":1,"t":1,"job":1,"jseq":1}|};
           {|{"type":"job.note","seq":2,"t":2,"job":0,"n":2}|};
           {|{"type":"job.start","seq":3,"t":3,"job":0,"jseq":0}|};
         ])
  in
  Tu.check_string "order"
    (String.concat "\n"
       [
         {|{"type":"job.start","job":0,"jseq":0}|};
         {|{"type":"job.note","job":0,"n":1}|};
         {|{"type":"job.note","job":0,"n":2}|};
         {|{"type":"job.done","job":1,"jseq":1}|};
       ]
    ^ "\n")
    canon

(* ---- the machine heartbeat producer ---- *)

let src = Core.Kernels.ser_mem ~iters:400 ~n:256

(* the records a streamed run emits (its passivity is part of the probe
   property in test_xmtsim) *)
let machine_stream_records () =
  let compiled = T.compile src in
  let buf = Buffer.create 4096 in
  let s = S.create (S.buffer_sink buf) in
  let streamed = T.machine ~config:C.tiny compiled in
  ignore (Xmtsim.Heartbeat.attach ~heartbeat_cycles:500 streamed s : unit -> unit);
  let rp = Xmtsim.Machine.run streamed in
  S.close s;
  let rs = records buf in
  let count t = List.length (List.filter (fun j -> typ j = t) rs) in
  Tu.check_int "one run.start" 1 (count "run.start");
  Tu.check_int "one run.done" 1 (count "run.done");
  Tu.check_bool "heartbeats emitted" true (count "sim.heartbeat" > 0);
  let don = List.find (fun j -> typ j = "run.done") rs in
  Tu.check_bool "run.done cycles" true
    (Option.bind (J.member "cycles" don) J.to_int
    = Some rp.Xmtsim.Machine.cycles);
  Tu.check_bool "run.done halted" true
    (J.member "halted" don = Some (J.Bool true));
  (* heartbeat payload: grid cycle and the windowed gauges *)
  let hb = List.find (fun j -> typ j = "sim.heartbeat") rs in
  List.iter
    (fun k ->
      Tu.check_bool (k ^ " present") true (J.member k hb <> None))
    [ "cycle"; "events"; "events_per_sec"; "gated_domains"; "memwait_frac" ]

(* Heartbeats are due on the cluster-clock grid, so a gated run emits
   as many as an ungated one: a heartbeat due while the clock sleeps comes
   on its next fired tick, labelled with that tick's grid index. *)
let heartbeat_on_grid () =
  let compiled = T.compile src in
  let beats gating =
    let m = T.machine ~config:C.chip1024 compiled in
    Xmtsim.Machine.set_gating m gating;
    let seen = ref [] in
    let write line =
      let j = J.of_string line in
      if typ j = "sim.heartbeat" then
        seen :=
          (Option.get (Option.bind (J.member "cycle" j) J.to_int), Xmtsim.Machine.cluster_ticks m)
          :: !seen
    in
    let s = S.create { S.write; close = ignore } in
    ignore (Xmtsim.Heartbeat.attach ~heartbeat_cycles:1000 m s : unit -> unit);
    ignore (Xmtsim.Machine.run m);
    S.close s;
    List.rev !seen
  in
  let gated = beats true and ungated = beats false in
  Tu.check_bool "several heartbeats" true (List.length ungated > 10);
  Tu.check_int "as many heartbeats gated as ungated" (List.length ungated) (List.length gated);
  List.iteri
    (fun i ((cg, _), (cu, _)) ->
      Tu.check_int "ungated: on the grid point" ((i + 1) * 1000) cu;
      Tu.check_bool "gated: at or after the grid point, before the next" true
        (cg >= cu && cg < cu + 1000))
    (List.combine gated ungated);
  (* [cluster_ticks] counts the emitting tick itself *)
  List.iter
    (fun (c, ticks) -> Tu.check_int "cycle is the emitting tick's grid index" (ticks - 1) c)
    (gated @ ungated)

let attach_rules () =
  let compiled = T.compile src in
  let m = T.machine ~config:C.tiny compiled in
  let s = S.create (S.null_sink ()) in
  let attach ?heartbeat_cycles m s =
    ignore (Xmtsim.Heartbeat.attach ?heartbeat_cycles m s : unit -> unit)
  in
  let detach = Xmtsim.Heartbeat.attach m s in
  (* double attach is rejected *)
  (match attach m (S.create (S.null_sink ())) with
  | exception Xmtsim.Machine.Sim_error _ -> ()
  | () -> Alcotest.fail "expected Sim_error on double attach");
  Tu.check_bool "stream visible" true (Xmtsim.Machine.probes m = [ "stream" ]);
  detach ();
  Tu.check_bool "detached" true (Xmtsim.Machine.probes m = []);
  (* attaching after the first run is rejected *)
  let m2 = T.machine ~config:C.tiny compiled in
  ignore (Xmtsim.Machine.run m2);
  (match attach m2 s with
  | exception Xmtsim.Machine.Sim_error _ -> ()
  | () -> Alcotest.fail "expected Sim_error after run");
  (* non-positive heartbeat interval is rejected *)
  let m3 = T.machine ~config:C.tiny compiled in
  match attach ~heartbeat_cycles:0 m3 s with
  | exception Xmtsim.Machine.Sim_error _ -> ()
  | () -> Alcotest.fail "expected Sim_error on interval 0"

(* ---- the campaign producer ---- *)

let campaign_stream lines_jobs =
  let buf = Buffer.create 4096 in
  let s = S.create (S.buffer_sink buf) in
  let _ = Campaign.run ~jobs:lines_jobs ~stream:s (Tu.failing_specs ()) in
  S.close s;
  Buffer.contents buf

let campaign_stream_contract () =
  let text = campaign_stream 1 in
  let rs =
    List.map
      (fun l ->
        match S.validate_line l with
        | Ok j -> j
        | Error e -> Alcotest.failf "invalid line %S: %s" l e)
      (List.filter
         (fun l -> String.trim l <> "")
         (String.split_on_char '\n' text))
  in
  let count t = List.length (List.filter (fun j -> typ j = t) rs) in
  Tu.check_int "campaign.start" 1 (count "campaign.start");
  Tu.check_int "campaign.done" 1 (count "campaign.done");
  Tu.check_int "job.start per job" 4 (count "job.start");
  Tu.check_int "job.done per job" 4 (count "job.done");
  Tu.check_int "progress per completion" 4 (count "campaign.progress");
  (* progress carries completed/total and an ETA *)
  let p = List.find (fun j -> typ j = "campaign.progress") rs in
  List.iter
    (fun k -> Tu.check_bool (k ^ " present") true (J.member k p <> None))
    [ "completed"; "total"; "ok"; "failed"; "running"; "workers";
      "jobs_per_sec"; "eta_seconds" ];
  (* the failed job reports its error *)
  let failed =
    List.find
      (fun j ->
        typ j = "job.done" && J.member "status" j = Some (J.Str "failed"))
      rs
  in
  Tu.check_bool "failure text" true (J.member "error" failed <> None);
  (* final progress has eta 0 and completed = total *)
  let last_p =
    List.nth (List.filter (fun j -> typ j = "campaign.progress") rs) 3
  in
  Tu.check_bool "final eta zero" true
    (Option.bind (J.member "eta_seconds" last_p) J.to_float = Some 0.0)

(* the oracle's campaign variant over a campaign with a failing job:
   canonical streams and reports byte-identical across worker counts *)
let campaign_serial_parallel_canonical () =
  Tu.agree_campaign "one failing job" (Tu.failing_specs ())

let () =
  Alcotest.run "stream"
    [
      ( "bus",
        [
          Tu.tc "emit + seq + open/close" emit_and_seq;
          Tu.tc "record in the sink when emit returns" written_on_emit;
          Tu.tc "null sink" reserved_sinks;
        ] );
      ( "rollup",
        [
          Tu.tc "window close + trailing flush" rollup_windows;
          Tu.tc "empty rollup silent" empty_rollup_is_silent;
        ] );
      ( "schema",
        [
          Tu.tc "validation errors" validation_errors;
          Tu.tc "whole stream lossless" whole_stream_lossless;
          Tu.tc "canonicalize reorders + strips" canonicalize_reorders;
        ] );
      ( "machine",
        [
          Tu.tc "heartbeat records" machine_stream_records;
          Tu.tc "attach rules" attach_rules;
          Tu.tc "heartbeats on the grid under gating" heartbeat_on_grid;
        ] );
      ( "campaign",
        [
          Tu.tc "lifecycle + progress + ETA" campaign_stream_contract;
          Tu.tc "serial = parallel (canonical)" campaign_serial_parallel_canonical;
        ] );
    ]
