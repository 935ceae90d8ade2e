(** The served session of the traced [sweep] run: [xmtserved] as a
    child process with a [--state-dir], driven by two closed-loop client
    connections from this process.

    - [interactive] sends 1-job campaigns whose source changes on every
      request — the edit-compile-simulate loop, so every request is an
      artifact miss;
    - [batch] sends 64-job campaigns cycling a fixed 4-kernel corpus on
      the [tiny] preset, so its jobs are artifact hits.

    Socket, protocol, journal, round-robin fairness and compiling
    dominate; the simulator does little.  Only the [serve.*] per-layer
    metrics are recorded. *)

module J = Obs.Json
module T = Core.Toolchain

let width = min 2 (Domain.recommended_domain_count ())
let config = Xmtsim.Config.tiny
let batch_jobs = 64

let corpus ~seed =
  let a = Sim.inputs ~seed ~n:64 in
  let mm = Isa.Memmap.of_ints [ ("A", a) ] in
  [
    Setup.program ~memmap:mm "reduce_psm" (Core.Kernels.reduce_psm ~n:64);
    Setup.program ~memmap:mm "compaction" (Core.Kernels.compaction ~n:64);
    Setup.program ~memmap:mm "reduce_tree" (Core.Kernels.reduce_tree ~n:64);
    Setup.program "ser_comp" (Core.Kernels.ser_comp ~iters:300);
  ]

(* the interactive request's program: one edit (two constants) per
   request *)
let interactive_source ~seed i =
  Printf.sprintf
    {|
int total = 0;

int main(void) {
  spawn(0, 63) {
    int v = $ * %d + %d;
    psm(v, total);
  }
  print_int(total);
  return 0;
}
|}
    (1 + ((seed * 7919) + i) mod 1000)
    i

let spec jobs =
  J.Obj
    [
      ("schema", J.Str "xmt.campaign.v1");
      ("defaults", J.Obj [ ("preset", J.Str config.Xmtsim.Config.name) ]);
      ("jobs", J.List jobs);
    ]

(* fields of a received record *)
let jstr k r = match J.member k r with Some (J.Str s) -> s | _ -> ""
let jint k r = match J.member k r with Some (J.Int n) -> n | _ -> -1

(* -------- the daemon -------- *)

type daemon = { pid : int; sock : string; state : string; client : Serve.Client.t }

let children = ref []

let stop_daemon d =
  (try Serve.Client.close d.client with _ -> ());
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  children := List.filter (( <> ) d.pid) !children;
  Host.rm_rf d.state;
  (try Unix.unlink d.sock with Unix.Unix_error _ -> ())

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children)

(** Spawn [xmtserved] and return once its [server.hello] arrived. *)
let spawn ~daemon ~run_dir =
  let sock = Filename.concat run_dir (Printf.sprintf "d%d.sock" (Unix.getpid ())) in
  let state = Filename.concat run_dir (Printf.sprintf "state%d" (Unix.getpid ())) in
  Host.rm_rf state;
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process daemon
      [| daemon; "--socket"; sock; "--state-dir"; state; "--workers"; string_of_int width |]
      null null null
  in
  Unix.close null;
  children := pid :: !children;
  let deadline = Host.now () +. 30.0 in
  let rec hello () =
    match Serve.Client.connect sock with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Host.now () < deadline ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "xmtserved exited during start-up");
      Unix.sleepf 0.001;
      hello ()
  in
  { pid; sock; state; client = hello () }

(* -------- the two clients -------- *)

type request = {
  admit : float;
  start_wait : float;
  done_to_close : float;
  source : string;
  output : string;
  cycles : int;
}

let rejects = Atomic.make 0

(* a job.done record that is not [ok] fails the run *)
let job_ok r = jstr "status" r = "ok"

let submit c ~on ~parent ~req spec =
  Span.with_span ~parent ~on ~req "serve.submit" (fun _ -> Serve.Client.submit c spec)

let interactive ~seed ~sock ~stop out =
  let c = Serve.Client.connect sock in
  let rec go i =
    if not (Atomic.get stop) then begin
      let on = Ledger.traced_unit i in
      let source = interactive_source ~seed i in
      let t0 = Host.now () in
      Span.with_span ~on ~req:i "serve.request" (fun rid ->
          match
            submit c ~on ~parent:rid ~req:i
              (spec [ J.Obj [ ("name", J.Str (Printf.sprintf "edit%d" i)); ("inline", J.Str source) ] ])
          with
          | Error frame ->
            Atomic.incr rejects;
            Ledger.fail "interactive request %d refused: %s" i (J.to_string frame)
          | Ok cid ->
            let t_acc = Host.now () in
            let t_start = ref nan and t_job = ref nan and fin = ref J.Null in
            Span.with_span ~parent:rid ~on ~req:i "serve.stream" (fun sid ->
                ignore
                  (Serve.Client.stream_until_done c ~cid ~on_record:(fun r ->
                       match jstr "type" r with
                       | "job.start" -> t_start := Host.now ()
                       | "job.done" ->
                         t_job := Host.now ();
                         fin := r;
                         ignore (Span.interval ~parent:sid ~on ~req:i "campaign.job" !t_start !t_job)
                       | _ -> ())));
            let t_done = Host.now () in
            if not (job_ok !fin) then
              Ledger.fail "interactive request %d: job %s" i (J.to_string !fin);
            out :=
              {
                admit = t_acc -. t0;
                start_wait = !t_start -. t_acc;
                done_to_close = t_done -. !t_job;
                source;
                output = jstr "output" !fin;
                cycles = jint "cycles" !fin;
              }
              :: !out);
      go (i + 1)
    end
  in
  go 0;
  Serve.Client.close c

let batch ~sock ~stop ~jobs ~expect out =
  let c = Serve.Client.connect sock in
  let rec go i =
    if not (Atomic.get stop) then begin
      let on = Ledger.traced_unit i in
      Span.with_span ~on ~req:i "serve.request" (fun rid ->
          match submit c ~on ~parent:rid ~req:i (spec jobs) with
          | Error frame ->
            Atomic.incr rejects;
            Ledger.fail "batch campaign %d refused: %s" i (J.to_string frame)
          | Ok cid ->
            let dones = ref [] in
            Span.with_span ~parent:rid ~on ~req:i "serve.stream" (fun _ ->
                ignore
                  (Serve.Client.stream_until_done c ~cid ~on_record:(fun r ->
                       if jstr "type" r = "job.done" then dones := (Host.now (), r) :: !dones)));
            let dones = List.rev !dones in
            List.iter
              (fun (_, r) ->
                let want_output, want_cycles = expect.(jint "job" r mod Array.length expect) in
                if not (job_ok r) then Ledger.fail "batch job: %s" (J.to_string r)
                else if jstr "output" r <> want_output || jint "cycles" r <> want_cycles then
                  Ledger.fail "batch job %s: output %S in %d cycles, direct run %S in %d"
                    (jstr "name" r) (jstr "output" r) (jint "cycles" r) want_output want_cycles)
              dones;
            (* seconds between successive job.done records *)
            let rec gaps = function
              | (a, _) :: ((b, _) :: _ as rest) -> (b -. a) :: gaps rest
              | _ -> []
            in
            out := gaps dones :: !out);
      go (i + 1)
    end
  in
  go 0;
  Serve.Client.close c

(** Run the served session for [seconds] and record the [serve.*]
    metrics. *)
let run ~seed ~seconds ~run_dir ~daemon =
  let corpus = corpus ~seed in
  let abs = Filename.concat (Sys.getcwd ()) run_dir in
  let mm_path (p : Setup.program) = Filename.concat abs ("mm-" ^ p.name ^ ".txt") in
  List.iter (fun (p : Setup.program) -> Isa.Memmap.print_to_file p.memmap (mm_path p)) corpus;
  let d = spawn ~daemon ~run_dir in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  (* direct runs: what every served batch job must reproduce *)
  let expect =
    Array.of_list
      (List.map
         (fun (p : Setup.program) ->
           let r = T.exec ~memmap:p.memmap ~config p.source in
           (r.T.output, r.T.cycles))
         corpus)
  in
  let jobs =
    List.init batch_jobs (fun j ->
        let p = List.nth corpus (j mod List.length corpus) in
        J.Obj
          ([ ("name", J.Str (Printf.sprintf "b%02d-%s" j p.name)); ("inline", J.Str p.source) ]
          @ if p.memmap = [] then [] else [ ("memmap", J.Str (mm_path p)) ]))
  in
  (* warm the daemon's pool and artifact cache, untimed *)
  (match Serve.Client.submit d.client (spec jobs) with
  | Ok cid -> ignore (Serve.Client.stream_until_done d.client ~cid ~on_record:ignore)
  | Error f -> failwith ("warm-up campaign refused: " ^ J.to_string f));
  let stop = Atomic.make false in
  let reqs = ref [] and batches = ref [] in
  let cpu0 = Host.cpu_ms (string_of_int d.pid) in
  let threads =
    [
      Thread.create (fun () -> interactive ~seed ~sock:d.sock ~stop reqs) ();
      Thread.create (fun () -> batch ~sock:d.sock ~stop ~jobs ~expect batches) ();
    ]
  in
  Unix.sleepf seconds;
  Atomic.set stop true;
  List.iter Thread.join threads;
  let cpu1 = Host.cpu_ms (string_of_int d.pid) in
  let reqs = !reqs and batches = !batches in
  let served = List.length reqs + (batch_jobs * List.length batches) in
  Ledger.attempted := !Ledger.attempted + served;
  Ledger.set "serve.journal_bytes_per_job"
    (float_of_int (Host.du_bytes d.state) /. float_of_int (served + batch_jobs));
  Ledger.set "serve.daemon_cpu_ms_per_job" ((cpu1 -. cpu0) /. float_of_int served);
  (* every interactive output against a direct run of its source *)
  List.iter
    (fun r ->
      let want = T.exec ~config r.source in
      if r.output <> want.T.output || r.cycles <> want.T.cycles then
        Ledger.fail "interactive output %S in %d cycles, direct run %S in %d" r.output
          r.cycles want.T.output want.T.cycles)
    reqs;
  let med f = Stat.median (List.map (fun r -> f r *. 1e3) reqs) in
  Ledger.set "serve.admit_ms_p50" (med (fun r -> r.admit));
  Ledger.set "serve.start_wait_ms_p50" (med (fun r -> r.start_wait));
  Ledger.set "serve.done_to_close_ms_p50" (med (fun r -> r.done_to_close));
  Ledger.set "serve.batch_gap_ms_p50" (Stat.median (List.concat batches) *. 1e3);
  Ledger.seti "serve.rejects" (Atomic.get rejects);
  Ledger.notei "serve.requests" (List.length reqs);
  Ledger.notei "serve.batch_campaigns" (List.length batches)
