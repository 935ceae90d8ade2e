(** The campaign server: wire protocol, byte-identity of served streams
    with direct {!Campaign.run}, fair multiplexing, quota rejection,
    disconnect survival, and journal-backed kill-and-restart resume. *)

module J = Obs.Json

(* ---- fixtures ---- *)

let tmp_name =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !n)

let tmp_dir prefix =
  let d = tmp_name prefix in
  Unix.mkdir d 0o755;
  d

let job_json ?mode ?seed ~name n =
  J.Obj
    ([
       ("name", J.Str name);
       ("inline", J.Str (Core.Kernels.vecadd ~n));
     ]
    @ (match mode with Some m -> [ ("mode", J.Str m) ] | None -> [])
    @ match seed with Some s -> [ ("seed", J.Int s) ] | None -> [])

let spec_json ?exec jobs =
  J.Obj
    ([
       ("schema", J.Str "xmt.campaign.v1");
       ("defaults", J.Obj [ ("preset", J.Str "tiny") ]);
       ("jobs", J.List jobs);
     ]
    @ match exec with Some e -> [ ("exec", e) ] | None -> [])

(* a small mixed campaign: cycle + functional, distinct sizes/seeds *)
let mixed_jobs k =
  List.init k (fun i ->
      let n = 16 + (i mod 3) * 8 in
      if i mod 4 = 3 then
        job_json ~mode:"functional" ~name:(Printf.sprintf "f%d" i) n
      else job_json ~seed:i ~name:(Printf.sprintf "c%d" i) n)

(* the reference: a direct in-process run of the same spec, canonical *)
let direct_canonical spec =
  let req = Campaign.Request.of_json spec in
  let buf = Buffer.create 4096 in
  let s = Obs.Stream.create (Obs.Stream.buffer_sink buf) in
  let _ = Campaign.run_request ~stream:s req in
  Obs.Stream.close s;
  Obs.Stream.canonicalize_lines (Buffer.contents buf)

let canon_of_records records =
  let b = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string b (J.to_string r);
      Buffer.add_char b '\n')
    records;
  Obs.Stream.canonicalize_lines (Buffer.contents b)

let with_server ?state_dir ?(workers = 2) ?(max_pending = 4096)
    ?(max_client = 1024) f =
  let cfg =
    {
      Serve.Server.socket_path = tmp_name "xmtserved";
      state_dir;
      workers = Some workers;
      max_pending_jobs = max_pending;
      max_client_jobs = max_client;
    }
  in
  let srv = Serve.Server.create cfg in
  Fun.protect ~finally:(fun () -> Serve.Server.stop srv) (fun () -> f cfg srv)

let submit_ok client spec =
  match Serve.Client.submit client spec with
  | Ok cid -> cid
  | Error frame -> Alcotest.failf "submit rejected: %s" (J.to_string frame)

let collect_stream client cid =
  let records = ref [] in
  let summary =
    Serve.Client.stream_until_done client ~cid ~on_record:(fun r ->
        records := r :: !records)
  in
  (List.rev !records, summary)

(* a client without Serve.Client, for what its API hides: malformed
   frames, the order of records across campaigns, and not reading at all *)
let raw_connect cfg =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX cfg.Serve.Server.socket_path);
  fd

let raw_submit fd ~cid spec =
  let frame =
    Bytes.of_string
      (J.to_string
         (J.Obj [ ("type", J.Str "campaign.submit"); ("cid", J.Str cid); ("spec", spec) ])
      ^ "\n")
  in
  let rec send off =
    if off < Bytes.length frame then
      send (off + Unix.write fd frame off (Bytes.length frame - off))
  in
  send 0

(* ---- protocol ---- *)

let protocol_frames () =
  let ok line =
    match Serve.Protocol.frame_of_line line with
    | Ok f -> f
    | Error m -> Alcotest.failf "parse %s: %s" line m
  in
  (match ok {|{"type":"campaign.submit","spec":{}}|} with
  | Serve.Protocol.Submit { cid = None; _ } -> ()
  | _ -> Alcotest.fail "submit without cid");
  (match ok {|{"type":"campaign.submit","cid":"x1","spec":{"jobs":[]}}|} with
  | Serve.Protocol.Submit { cid = Some "x1"; _ } -> ()
  | _ -> Alcotest.fail "submit with cid");
  (match
     ok {|{"type":"campaign.attach","cid":"x1","after":{"job":3,"jseq":1}}|}
   with
  | Serve.Protocol.Attach { cid = "x1"; after = Some (3, 1) } -> ()
  | _ -> Alcotest.fail "attach with ack");
  (match ok {|{"type":"ping"}|} with
  | Serve.Protocol.Ping -> ()
  | _ -> Alcotest.fail "ping");
  let rejects line =
    match Serve.Protocol.frame_of_line line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected a parse error: %s" line
  in
  rejects {|{"type":"campaign.submit"}|};
  rejects {|{"type":"campaign.attach"}|};
  rejects {|{"type":"warp"}|};
  rejects {|{"type":"campaign.submit","cid":"bad/../id","spec":{}}|};
  rejects "not json";
  Tu.check_bool "cid charset" false (Serve.Protocol.valid_cid "a b");
  Tu.check_bool "cid dotfile" false (Serve.Protocol.valid_cid ".hidden");
  Tu.check_bool "cid ok" true (Serve.Protocol.valid_cid "sweep_1.run-2")

(* ---- journal ---- *)

let journal_roundtrip () =
  let dir = tmp_dir "serve-journal" in
  let spec = spec_json (mixed_jobs 2) in
  let jn = Serve.Journal.start ~dir ~cid:"j1" ~spec in
  Serve.Journal.append jn
    (J.Obj [ ("type", J.Str "job.start"); ("job", J.Int 0); ("jseq", J.Int 0) ]);
  Serve.Journal.append jn
    (J.Obj
       [
         ("type", J.Str "job.done"); ("job", J.Int 0); ("jseq", J.Int 1);
         ("status", J.Str "ok");
       ]);
  Serve.Journal.close jn;
  (* simulate a kill -9 mid-line: append a truncated record *)
  let oc =
    open_out_gen [ Open_append ] 0o644 (Serve.Journal.path ~dir ~cid:"j1")
  in
  output_string oc {|{"type":"job.start","job":1,"js|};
  close_out oc;
  match Serve.Journal.recover ~dir with
  | [ r ], [] ->
    Tu.check_string "cid" "j1" r.Serve.Journal.rc_cid;
    Tu.check_string "spec survives verbatim" (J.to_string spec)
      (J.to_string r.Serve.Journal.rc_spec);
    Tu.check_int "truncated final line dropped" 2
      (List.length r.Serve.Journal.rc_records);
    Tu.check_bool "incomplete" false r.Serve.Journal.rc_complete
  | rs, _ -> Alcotest.failf "recovered %d journals, expected 1" (List.length rs)

(* a corrupt middle line (or no open line) is reported with its reason,
   not silently dropped; a good journal beside it still recovers *)
let journal_corrupt_reported () =
  let dir = tmp_dir "serve-journal-bad" in
  let spec = spec_json (mixed_jobs 1) in
  let good = Serve.Journal.start ~dir ~cid:"good" ~spec in
  Serve.Journal.close good;
  let bad = Serve.Journal.start ~dir ~cid:"bad" ~spec in
  Serve.Journal.close bad;
  let oc = open_out_gen [ Open_append ] 0o644 (Serve.Journal.path ~dir ~cid:"bad") in
  output_string oc "{\"type\":\"job.st\n{\"type\":\"job.start\",\"job\":0,\"jseq\":0}\n";
  close_out oc;
  Out_channel.with_open_text (Serve.Journal.path ~dir ~cid:"foreign") (fun oc ->
      output_string oc "{\"hello\":1}\n");
  let recovered, skipped = Serve.Journal.recover ~dir in
  Tu.check_bool "good journal recovered" true
    (List.map (fun r -> r.Serve.Journal.rc_cid) recovered = [ "good" ]);
  Tu.check_bool "corrupt and foreign journals reported" true
    (List.map fst skipped = [ "bad.journal"; "foreign.journal" ]);
  Tu.check_bool "reason names the line" true
    (let why = List.assoc "bad.journal" skipped in
     String.length why > 6 && String.sub why 0 6 = "line 2")

(* an over-long request line gets an error frame and loses only its own
   connection; other clients keep being served *)
let oversized_frame_rejected () =
  with_server (fun cfg _srv ->
      let other = Serve.Client.connect cfg.Serve.Server.socket_path in
      let fd = raw_connect cfg in
      let junk = Bytes.make (Serve.Protocol.max_frame_bytes + 1) 'x' in
      let rec send off =
        if off < Bytes.length junk then
          send (off + Unix.write fd junk off (Bytes.length junk - off))
      in
      (try send 0 with Unix.Unix_error _ -> ());
      let reply = In_channel.input_all (Unix.in_channel_of_descr fd) in
      Unix.close fd;
      let has needle =
        let n = String.length needle in
        let rec go i =
          i + n <= String.length reply && (String.sub reply i n = needle || go (i + 1))
        in
        go 0
      in
      Tu.check_bool "error frame sent" true (has "server.error" && has "longer than");
      Tu.check_bool "other client still served" true (Serve.Client.ping other = Ok ());
      let cid = submit_ok other (spec_json (mixed_jobs 1)) in
      let _, summary = collect_stream other cid in
      Tu.check_int "campaign ran" 1 summary.Serve.Client.s_ok;
      Serve.Client.close other)

(* ---- served stream == direct run ---- *)

let served_matches_direct () =
  let spec = spec_json (mixed_jobs 6) in
  let reference = direct_canonical spec in
  with_server (fun cfg _srv ->
      let client = Serve.Client.connect cfg.Serve.Server.socket_path in
      (match J.member "schema" (Serve.Client.hello client) with
      | Some (J.Str s) -> Tu.check_string "hello schema" "xmt.serve.v1" s
      | _ -> Alcotest.fail "server.hello carries the schema");
      let cid = submit_ok client spec in
      let records, summary = collect_stream client cid in
      Tu.check_int "all jobs ok" 6 summary.Serve.Client.s_ok;
      Tu.check_int "none failed" 0 summary.Serve.Client.s_failed;
      Tu.check_string "served stream canonicalizes byte-identical" reference
        (canon_of_records records);
      Serve.Client.close client)

let two_campaigns_one_connection () =
  let spec_a = spec_json (mixed_jobs 4) in
  let spec_b = spec_json (List.rev (mixed_jobs 3)) in
  with_server (fun cfg _srv ->
      let client = Serve.Client.connect cfg.Serve.Server.socket_path in
      let cid_a = submit_ok client spec_a in
      let cid_b = submit_ok client spec_b in
      Tu.check_bool "distinct cids" true (cid_a <> cid_b);
      (* interleaved on the wire, demultiplexed by cid *)
      let records_b, sb = collect_stream client cid_b in
      let records_a, sa = collect_stream client cid_a in
      Tu.check_int "a ok" 4 sa.Serve.Client.s_ok;
      Tu.check_int "b ok" 3 sb.Serve.Client.s_ok;
      Tu.check_string "a matches direct" (direct_canonical spec_a)
        (canon_of_records records_a);
      Tu.check_string "b matches direct" (direct_canonical spec_b)
        (canon_of_records records_b);
      Serve.Client.close client)

(* ---- fairness ---- *)

let small_campaign_not_starved () =
  (* a big campaign is queued; a small one submitted after it on the same
     connection must finish while the big one is still in flight
     (round-robin dispatch), not after it.  One connection carries both
     streams in the order the server emits them, so the check reads only
     what the server decided, not how fast a client read *)
  let big = spec_json (mixed_jobs 40) in
  let small = spec_json [ job_json ~name:"s0" 16; job_json ~name:"s1" 24 ] in
  with_server ~workers:2 (fun cfg _srv ->
      let fd = raw_connect cfg in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          raw_submit fd ~cid:"big" big;
          raw_submit fd ~cid:"small" small;
          let ic = Unix.in_channel_of_descr fd in
          (* every record on the wire until both campaigns are done *)
          let rec read acc finished =
            if finished = 2 then List.rev acc
            else
              let r = J.of_string (input_line ic) in
              (match J.member "type" r with
              | Some (J.Str ("server.error" | "server.overload")) ->
                Alcotest.failf "submit rejected: %s" (J.to_string r)
              | _ -> ());
              let finished =
                finished + if J.member "type" r = Some (J.Str "campaign.done") then 1 else 0
              in
              read (r :: acc) finished
          in
          let wire = read [] 0 in
          let dones =
            List.filter_map
              (fun r ->
                if J.member "type" r = Some (J.Str "campaign.done") then J.member "cid" r
                else None)
              wire
          in
          Tu.check_bool "small campaign done before the big one" true
            (dones = [ J.Str "small"; J.Str "big" ]);
          let strip_cid = function
            | J.Obj kvs -> J.Obj (List.filter (fun (k, _) -> k <> "cid") kvs)
            | j -> j
          in
          let records_big =
            List.map strip_cid (List.filter (fun r -> J.member "cid" r = Some (J.Str "big")) wire)
          in
          Tu.check_int "big done" 40
            (List.length
               (List.filter
                  (fun r ->
                    J.member "type" r = Some (J.Str "job.done")
                    && J.member "status" r = Some (J.Str "ok"))
                  records_big));
          Tu.check_string "big matches direct despite interleaving" (direct_canonical big)
            (canon_of_records records_big)))

(* A client that submits a campaign and never reads fills its socket
   buffer.  The server's sends to it must give up, not hold the
   campaign's lock for good: another client's campaign still finishes
   (checked with a bounded wait), the wedged campaign keeps running to
   completion, and the wedged client sees its connection end. *)
let wedged_client_stalls_no_one () =
  let wedged =
    spec_json (List.init 400 (fun i -> job_json ~name:(Printf.sprintf "w%d" i) 16))
  in
  let small = spec_json [ job_json ~name:"s0" 16; job_json ~name:"s1" 24 ] in
  with_server ~workers:2 (fun cfg srv ->
      let fd = raw_connect cfg in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          raw_submit fd ~cid:"wedged" wedged;
          (* wait until the wedged campaign stops advancing: its client's
             buffer is full *)
          let completed () =
            match Serve.Server.campaign_state srv "wedged" with
            | Some (c, _, _) -> c
            | None -> 0
          in
          let rec stalled last =
            Unix.sleepf 0.3;
            let now = completed () in
            if now = last then now else stalled now
          in
          let at_stall = stalled (-1) in
          Tu.check_bool "the wedged client's buffer filled" true (at_stall < 400);
          let result = ref None in
          let reader =
            Thread.create
              (fun () ->
                result :=
                  Some
                    (try
                       let cb = Serve.Client.connect cfg.Serve.Server.socket_path in
                       let cid = submit_ok cb small in
                       let _, s = collect_stream cb cid in
                       Serve.Client.close cb;
                       Ok s.Serve.Client.s_ok
                     with e -> Error (Printexc.to_string e)))
              ()
          in
          let deadline = Obs.Clock.now () +. 30.0 in
          while !result = None && Obs.Clock.now () < deadline do
            Unix.sleepf 0.05
          done;
          (match !result with
          | Some (Ok ok) -> Tu.check_int "other client's campaign finished" 2 ok
          | Some (Error e) -> Alcotest.failf "other client: %s" e
          | None ->
            (* unwedge the server so the fixture can stop it *)
            Unix.close fd;
            Thread.join reader;
            Alcotest.fail "other client's campaign stalled behind the wedged client");
          Thread.join reader;
          Serve.Server.wait_idle srv;
          Tu.check_int "the wedged campaign ran to completion" 400 (completed ());
          (* the server gave up on the wedged client: reading drains what
             was sent, then ends before the campaign's last records *)
          let got = In_channel.input_all (Unix.in_channel_of_descr fd) in
          Tu.check_bool "the wedged client lost its connection" true
            (List.for_all
               (fun l ->
                 match J.of_string l with
                 | j -> J.member "type" j <> Some (J.Str "campaign.done")
                 | exception J.Parse_error _ -> true)
               (String.split_on_char '\n' got))))

(* ---- quotas and admission ---- *)

let quota_rejections () =
  let spec6 = spec_json (mixed_jobs 6) in
  with_server ~max_client:4 (fun cfg _srv ->
      let client = Serve.Client.connect cfg.Serve.Server.socket_path in
      (match Serve.Client.submit client spec6 with
      | Error frame ->
        (match J.member "type" frame with
        | Some (J.Str t) -> Tu.check_string "typed frame" "server.overload" t
        | _ -> Alcotest.fail "overload frame has a type");
        (match J.member "scope" frame with
        | Some (J.Str s) -> Tu.check_string "client scope" "client" s
        | _ -> Alcotest.fail "overload frame has a scope");
        (match J.member "requested" frame with
        | Some (J.Int r) -> Tu.check_int "requested" 6 r
        | _ -> Alcotest.fail "overload frame reports the request size")
      | Ok _ -> Alcotest.fail "6 jobs over a 4-job quota must be rejected");
      (* the connection survives a rejection and can submit within quota *)
      let cid = submit_ok client (spec_json (mixed_jobs 3)) in
      let _, s = collect_stream client cid in
      Tu.check_int "small submit fine after rejection" 3 s.Serve.Client.s_ok;
      Serve.Client.close client);
  with_server ~max_pending:4 (fun cfg _srv ->
      let client = Serve.Client.connect cfg.Serve.Server.socket_path in
      match Serve.Client.submit client spec6 with
      | Error frame ->
        (match J.member "scope" frame with
        | Some (J.Str s) -> Tu.check_string "server scope" "server" s
        | _ -> Alcotest.fail "overload frame has a scope");
        Serve.Client.close client
      | Ok _ -> Alcotest.fail "server-wide admission cap must reject")

let duplicate_cid_rejected () =
  with_server (fun cfg _srv ->
      let client = Serve.Client.connect cfg.Serve.Server.socket_path in
      let spec = spec_json (mixed_jobs 2) in
      (match Serve.Client.submit client ~cid:"dup" spec with
      | Ok cid -> Tu.check_string "explicit cid honored" "dup" cid
      | Error f -> Alcotest.failf "first submit: %s" (J.to_string f));
      (match Serve.Client.submit client ~cid:"dup" spec with
      | Error frame -> (
        match J.member "type" frame with
        | Some (J.Str t) -> Tu.check_string "typed error" "server.error" t
        | _ -> Alcotest.fail "error frame has a type")
      | Ok _ -> Alcotest.fail "duplicate cid must be rejected");
      let _ = collect_stream client "dup" in
      Serve.Client.close client)

let bad_spec_is_server_error () =
  with_server (fun cfg _srv ->
      let client = Serve.Client.connect cfg.Serve.Server.socket_path in
      (match
         Serve.Client.submit client (J.Obj [ ("schema", J.Str "xmt.campaign.v1") ])
       with
      | Error frame -> (
        match J.member "type" frame with
        | Some (J.Str t) -> Tu.check_string "typed error" "server.error" t
        | _ -> Alcotest.fail "error frame has a type")
      | Ok _ -> Alcotest.fail "spec without jobs must be rejected");
      Tu.check_bool "connection survives" true (Serve.Client.ping client = Ok ());
      Serve.Client.close client)

(* A spec naming an unreadable memmap is answered like any bad spec: a
   server.error frame, and the connection stays usable for the next
   submit. *)
let bad_memmap_is_server_error () =
  with_server (fun cfg _srv ->
      let client = Serve.Client.connect cfg.Serve.Server.socket_path in
      let job = J.Obj [ ("name", J.Str "m"); ("inline", J.Str (Core.Kernels.vecadd ~n:16));
                        ("memmap", J.Str (tmp_name "missing.map")) ] in
      (match Serve.Client.submit client (spec_json [ job ]) with
      | Error frame ->
        Tu.check_bool "server.error frame" true
          (J.member "type" frame = Some (J.Str "server.error"))
      | Ok _ -> Alcotest.fail "spec with a missing memmap must be rejected");
      let cid = submit_ok client (spec_json (mixed_jobs 2)) in
      let _, s = collect_stream client cid in
      Tu.check_int "same connection still submits" 2 s.Serve.Client.s_ok;
      Serve.Client.close client)

(* ---- disconnect and re-attach ---- *)

let disconnect_then_attach () =
  let dir = tmp_dir "serve-disc" in
  let spec = spec_json (mixed_jobs 5) in
  with_server ~state_dir:dir (fun cfg srv ->
      let c1 = Serve.Client.connect cfg.Serve.Server.socket_path in
      let cid = submit_ok c1 spec in
      (* vanish without reading a single job record *)
      Serve.Client.close c1;
      (* the jobs still complete, journaled *)
      Serve.Server.wait_idle srv;
      (match Serve.Server.campaign_state srv cid with
      | Some (completed, total, complete) ->
        Tu.check_int "all jobs completed server-side" total completed;
        Tu.check_bool "campaign closed" true complete
      | None -> Alcotest.fail "campaign lost");
      (* a later client re-streams the whole thing from the journal *)
      let c2 = Serve.Client.connect cfg.Serve.Server.socket_path in
      (match Serve.Client.attach c2 ~cid () with
      | Ok () -> ()
      | Error f -> Alcotest.failf "attach: %s" (J.to_string f));
      let records, summary = collect_stream c2 cid in
      Tu.check_int "replayed ok count" 5 summary.Serve.Client.s_ok;
      Tu.check_string "replay canonicalizes to the direct stream"
        (direct_canonical spec)
        (canon_of_records records);
      Serve.Client.close c2)

(* ---- restart and resume ---- *)

let job_key r =
  match
    ( Option.bind (J.member "job" r) J.to_int,
      Option.bind (J.member "jseq" r) J.to_int )
  with
  | Some j, Some s -> Some (j, s)
  | _ -> None

let restart_resumes_exactly_once () =
  let dir = tmp_dir "serve-resume" in
  let spec = spec_json (mixed_jobs 8) in
  let reference = direct_canonical spec in
  let sock1 = tmp_name "xmtserved-r1" in
  let cfg1 =
    {
      (Serve.Server.default_config ~socket_path:sock1) with
      state_dir = Some dir;
      workers = Some 2;
    }
  in
  let srv1 = Serve.Server.create cfg1 in
  let c1 = Serve.Client.connect sock1 in
  let cid = submit_ok c1 spec in
  (* read a prefix: stop after the second job.done *)
  let prefix = ref [] in
  let dones = ref 0 in
  while !dones < 2 do
    let r = Serve.Client.next_record c1 ~cid in
    prefix := r :: !prefix;
    match J.member "type" r with
    | Some (J.Str "job.done") -> incr dones
    | _ -> ()
  done;
  let prefix = List.rev !prefix in
  let last_ack =
    List.fold_left
      (fun acc r -> match job_key r with Some k -> Some k | None -> acc)
      None prefix
  in
  (* the server dies; whatever was sent-but-unread is lost to us *)
  Serve.Server.stop srv1;
  (try Serve.Client.close c1 with Serve.Client.Disconnected -> ());
  (* a new lifetime over the same state dir resumes the campaign *)
  let sock2 = tmp_name "xmtserved-r2" in
  let cfg2 = { cfg1 with socket_path = sock2 } in
  let srv2 = Serve.Server.create cfg2 in
  Fun.protect
    ~finally:(fun () -> Serve.Server.stop srv2)
    (fun () ->
      Serve.Server.wait_idle srv2;
      (match Serve.Server.campaign_state srv2 cid with
      | Some (completed, total, complete) ->
        Tu.check_int "resumed to completion" total completed;
        Tu.check_bool "complete" true complete
      | None -> Alcotest.fail "campaign not recovered");
      let c2 = Serve.Client.connect sock2 in
      (match Serve.Client.attach c2 ~cid ?after:last_ack () with
      | Ok () -> ()
      | Error f -> Alcotest.failf "attach: %s" (J.to_string f));
      let suffix, _summary = collect_stream c2 cid in
      let all = prefix @ suffix in
      (* no (job, jseq) lost or duplicated across the two lifetimes *)
      let keys = List.filter_map job_key all in
      let distinct = List.sort_uniq compare keys in
      Tu.check_int "every (job,jseq) exactly once" (List.length keys)
        (List.length distinct);
      Tu.check_int "all 16 job records present" 16 (List.length keys);
      Tu.check_string "stitched stream matches the direct run" reference
        (canon_of_records all);
      Serve.Client.close c2)

let orphan_start_not_duplicated () =
  (* hand-craft a journal caught between job.start and job.done: the
     resumed run must emit only the missing job.done *)
  let dir = tmp_dir "serve-orphan" in
  let spec = spec_json (mixed_jobs 2) in
  let jn = Serve.Journal.start ~dir ~cid:"orph" ~spec in
  Serve.Journal.append jn
    (J.Obj
       [
         ("type", J.Str "job.start");
         ("job", J.Int 0);
         ("jseq", J.Int 0);
         ("name", J.Str "c0");
       ]);
  Serve.Journal.close jn;
  with_server ~state_dir:dir (fun cfg srv ->
      Serve.Server.wait_idle srv;
      (match Serve.Server.campaign_state srv "orph" with
      | Some (2, 2, true) -> ()
      | Some (c, n, d) ->
        Alcotest.failf "state %d/%d complete=%b after resume" c n d
      | None -> Alcotest.fail "orphan campaign not recovered");
      let client = Serve.Client.connect cfg.Serve.Server.socket_path in
      (match Serve.Client.attach client ~cid:"orph" () with
      | Ok () -> ()
      | Error f -> Alcotest.failf "attach: %s" (J.to_string f));
      let records, _ = collect_stream client "orph" in
      let keys = List.filter_map job_key records in
      Tu.check_int "4 job records, none duplicated" 4
        (List.length (List.sort_uniq compare keys));
      Tu.check_int "orphan start emitted exactly once" 4 (List.length keys);
      Tu.check_string "canonical stream matches direct"
        (direct_canonical spec)
        (canon_of_records records);
      Serve.Client.close client)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Tu.tc "request frames" protocol_frames;
          Tu.tc "journal round-trip + truncation" journal_roundtrip;
          Tu.tc "corrupt journal reported" journal_corrupt_reported;
          Tu.tc "oversized frame rejected" oversized_frame_rejected;
        ] );
      ( "byte-identity",
        [
          Tu.tc "served stream matches direct run" served_matches_direct;
          Tu.tc "two campaigns, one connection" two_campaigns_one_connection;
        ] );
      ( "multiplexing",
        [
          Tu.tc "small campaign not starved" small_campaign_not_starved;
          Tu.tc "a client that stops reading stalls no one" wedged_client_stalls_no_one;
        ] );
      ( "admission",
        [
          Tu.tc "client and server quotas" quota_rejections;
          Tu.tc "duplicate cid rejected" duplicate_cid_rejected;
          Tu.tc "bad spec is a typed error" bad_spec_is_server_error;
          Tu.tc "bad memmap is a typed error" bad_memmap_is_server_error;
        ] );
      ( "resume",
        [
          Tu.tc "disconnect: jobs complete, replay works" disconnect_then_attach;
          Tu.tc "restart resumes exactly-once" restart_resumes_exactly_once;
          Tu.tc "orphan job.start not re-emitted" orphan_start_not_duplicated;
        ] );
    ]
