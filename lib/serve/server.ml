(** The campaign server — see server.mli.

    Locking: two levels.  [t.lock] guards the server tables (campaign
    table, the ready rotation, admission counters, connection
    registry).  Each campaign's [c_elock] serializes its
    journal-then-send step, so journal order is send order and the
    replay history is exactly what a client was sent.  Lock order is always [c_elock] then [t.lock], never the
    reverse. *)

module J = Obs.Json

type config = {
  socket_path : string;
  state_dir : string option;
  workers : int option;
  max_pending_jobs : int;
  max_client_jobs : int;
}

let default_config ~socket_path =
  {
    socket_path;
    state_dir = None;
    workers = None;
    max_pending_jobs = 4096;
    max_client_jobs = 1024;
  }

(* a connection's outbound stream plus the liveness flag its sink
   trips on the first failed write — emissions to a dead client are
   silently swallowed, never an error *)
type subscriber = { sub_stream : Obs.Stream.t; sub_alive : bool ref }

type conn = {
  k_fd : Unix.file_descr;
  k_sub : subscriber;
  mutable k_inflight : int;  (* admitted jobs not yet completed *)
}

type campaign = {
  c_cid : string;
  c_specs : (string * Core.Toolchain.job) array;
  c_retries : int;
  c_elock : Mutex.t;
  c_journal : Journal.t option;
  c_pending : int Queue.t;  (* guarded by [t.lock] *)
  c_skip_start : (int, unit) Hashtbl.t;
      (* recovered indices whose [job.start] already made it to the
         journal in a previous lifetime: re-running them must emit only
         the missing [job.done] *)
  mutable c_history : J.t list;  (* journal-order records, reversed *)
  mutable c_sub : subscriber option;
  mutable c_owner : conn option;  (* quota account; [None] once detached *)
  mutable c_completed : int;
  mutable c_ok : int;
  mutable c_failed : int;
  mutable c_complete : bool;
}

type t = {
  cfg : config;
  pool : Campaign.Pool.t;
  artifacts : Core.Toolchain.Artifacts.t;
  listen_fd : Unix.file_descr;
  lock : Mutex.t;
  work : Condition.t;  (* scheduler wakeup *)
  idle : Condition.t;  (* wait_idle *)
  campaigns : (string, campaign) Hashtbl.t;  (* every campaign, by cid *)
  ready : campaign Queue.t;
      (* the round-robin rotation: exactly the campaigns with queued
         jobs, each once *)
  mutable conns : conn list;
  mutable pending_total : int;
  mutable running_total : int;
  mutable next_cid : int;
  mutable stopping : bool;
  mutable threads : Thread.t list;
  mutable sched : unit Domain.t option;  (* participant 0 of the pool *)
}

(* ------------------------------------------------------------------ *)
(* Outbound records *)

(* How long one send to a client may block.  A stream writes each
   record when it is emitted, under the campaign's [c_elock]: a client
   that stays connected but stops reading would otherwise hold that lock,
   and with it every participant that takes the campaign's next job. *)
let send_timeout_s = 3.0

(* A failed or timed-out write ends the subscription and shuts the
   socket down, so the client sees a lost connection (and can re-attach
   after the last record it got); the campaign runs on, journaled. *)
let socket_sink fd alive =
  let write line =
    if !alive then begin
      let buf = Bytes.of_string (line ^ "\n") in
      let n = Bytes.length buf in
      let rec go off =
        if off < n then
          match Unix.write fd buf off (n - off) with
          | w -> go (off + w)
          | exception Unix.Unix_error (_, _, _) ->
            alive := false;
            (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      in
      go 0
    end
  in
  {
    Obs.Stream.write;
    close =
      (fun () ->
        alive := false;
        try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  }

(* live emission to whoever is subscribed; the trailing ["cid"] is what
   lets one connection multiplex campaigns (clients strip it) *)
let emit_sub c ~typ fields =
  match c.c_sub with
  | Some { sub_stream; sub_alive } when !sub_alive ->
    Obs.Stream.emit sub_stream ~typ (fields @ [ ("cid", J.Str c.c_cid) ])
  | _ -> ()

(* journal-then-send under [c_elock]: exactly-once into the journal and
   the history, at-most-once (subscriber may be dead) onto the wire *)
let record c ~typ fields =
  let r = J.Obj (("type", J.Str typ) :: fields) in
  Option.iter (fun jn -> Journal.append jn r) c.c_journal;
  c.c_history <- r :: c.c_history;
  emit_sub c ~typ fields

let progress_fields c =
  Campaign.progress_fields ~completed:c.c_completed
    ~total:(Array.length c.c_specs) ~ok:c.c_ok ~failed:c.c_failed

let done_fields c =
  Campaign.done_fields ~total:(Array.length c.c_specs) ~ok:c.c_ok ~failed:c.c_failed

(* ------------------------------------------------------------------ *)
(* Job execution *)

(* Campaign's own per-job step; the callbacks add journal-then-send
   under [c_elock] and the admission counters under [t.lock] *)
let exec_one t c i =
  let name, job = c.c_specs.(i) in
  let on_start typ fields =
    Mutex.protect c.c_elock (fun () ->
        if Hashtbl.mem c.c_skip_start i then Hashtbl.remove c.c_skip_start i
        else record c ~typ fields)
  in
  let on_done r typ fields =
    Mutex.protect c.c_elock (fun () ->
        record c ~typ fields;
        let complete =
          Mutex.protect t.lock (fun () ->
              c.c_completed <- c.c_completed + 1;
              if Result.is_ok r.Campaign.r_outcome then c.c_ok <- c.c_ok + 1
              else c.c_failed <- c.c_failed + 1;
              t.running_total <- t.running_total - 1;
              Option.iter (fun k -> k.k_inflight <- k.k_inflight - 1) c.c_owner;
              let complete = c.c_completed = Array.length c.c_specs in
              if complete then c.c_complete <- true;
              if t.pending_total = 0 && t.running_total = 0 then
                Condition.broadcast t.idle;
              complete)
        in
        emit_sub c ~typ:"campaign.progress" (progress_fields c);
        if complete then begin
          Option.iter
            (fun jn ->
              Journal.close_mark jn ~ok:c.c_ok ~failed:c.c_failed;
              Journal.close jn)
            c.c_journal;
          emit_sub c ~typ:"campaign.done" (done_fields c)
        end)
  in
  ignore
    (Campaign.job_step ~artifacts:t.artifacts ~retries:c.c_retries ~on_start
       ~on_done ~index:i ~name job
      : Campaign.job_result)

(* ------------------------------------------------------------------ *)
(* Scheduler: one pool run, every participant pulling the next job *)

(* Under [t.lock]: the front campaign of the rotation gives up one
   queued job and goes to the back if it has more.  One job per campaign
   per turn is the fairness discipline: a 4-job campaign behind a
   1000-job one gets every other job. *)
let take_job t =
  let c = Queue.pop t.ready in
  let i = Queue.pop c.c_pending in
  if not (Queue.is_empty c.c_pending) then Queue.push c t.ready;
  t.pending_total <- t.pending_total - 1;
  t.running_total <- t.running_total + 1;
  (c, i)

(* The scheduler domain's one [Pool.run] lasts the server's lifetime: a
   step waits for a queued job, runs it, and says stop only once [stop]
   has been called, so no participant leaves while work can still
   arrive.  Jobs in flight at [stop] finish and are journaled.  The
   scheduler is a domain of its own, not a thread of the main one, so
   no job holds up the accept and connection threads: a submission is
   admitted at once, whatever is running. *)
let scheduler t () =
  let step ~worker:_ =
    let next =
      Mutex.protect t.lock (fun () ->
          while (not t.stopping) && Queue.is_empty t.ready do
            Condition.wait t.work t.lock
          done;
          if t.stopping then None else Some (take_job t))
    in
    match next with
    | None -> false
    | Some (c, i) ->
      exec_one t c i;
      true
  in
  try Campaign.Pool.run t.pool step
  with e -> Printf.eprintf "xmtserved: scheduler: %s\n%!" (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Frame handling *)

let emit_conn conn ~typ fields =
  if !(conn.k_sub.sub_alive) then
    Obs.Stream.emit conn.k_sub.sub_stream ~typ fields

let server_error conn ?cid msg =
  emit_conn conn ~typ:"server.error"
    ((match cid with Some c -> [ ("cid", J.Str c) ] | None -> [])
    @ [ ("error", J.Str msg) ])

let find_campaign t cid =
  Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.campaigns cid)

let journal_exists t cid =
  match t.cfg.state_dir with
  | None -> false
  | Some dir -> Sys.file_exists (Journal.path ~dir ~cid)

(* a fresh id: "c1", "c2", ... skipping anything alive in memory or on
   disk from a previous lifetime *)
let generate_cid t =
  let taken cid = Hashtbl.mem t.campaigns cid || journal_exists t cid in
  let rec go () =
    let cid = Printf.sprintf "c%d" t.next_cid in
    t.next_cid <- t.next_cid + 1;
    if taken cid then go () else cid
  in
  go ()

let handle_submit t conn ~cid ~spec =
  match Campaign.Request.of_json spec with
  | exception Campaign.Spec_error msg -> server_error conn ?cid msg
  | exception Xmtsim.Config.Bad_config msg -> server_error conn ?cid msg
  | req ->
    let specs = Array.of_list req.Campaign.Request.specs in
    let n = Array.length specs in
    let verdict =
      Mutex.protect t.lock (fun () ->
          match cid with
          | Some c when Hashtbl.mem t.campaigns c || journal_exists t c ->
            `Exists c
          | _ ->
            let in_use = t.pending_total + t.running_total in
            if in_use + n > t.cfg.max_pending_jobs then
              `Overload ("server", in_use, t.cfg.max_pending_jobs)
            else if conn.k_inflight + n > t.cfg.max_client_jobs then
              `Overload ("client", conn.k_inflight, t.cfg.max_client_jobs)
            else begin
              let cid =
                match cid with Some c -> c | None -> generate_cid t
              in
              conn.k_inflight <- conn.k_inflight + n;
              `Admit cid
            end)
    in
    (match verdict with
    | `Exists c ->
      server_error conn ~cid:c
        (Printf.sprintf
           "campaign %S already exists; use campaign.attach to re-stream it" c)
    | `Overload (scope, pending, limit) ->
      emit_conn conn ~typ:"server.overload"
        ((match cid with Some c -> [ ("cid", J.Str c) ] | None -> [])
        @ [
            ("scope", J.Str scope);
            ("pending", J.Int pending);
            ("limit", J.Int limit);
            ("requested", J.Int n);
          ])
    | `Admit cid ->
      let journal =
        Option.map
          (fun dir -> Journal.start ~dir ~cid ~spec)
          t.cfg.state_dir
      in
      let c =
        {
          c_cid = cid;
          c_specs = specs;
          c_retries = req.Campaign.Request.retries;
          c_elock = Mutex.create ();
          c_journal = journal;
          c_pending = Queue.create ();
          c_skip_start = Hashtbl.create 7;
          c_history = [];
          c_sub = Some conn.k_sub;
          c_owner = Some conn;
          c_completed = 0;
          c_ok = 0;
          c_failed = 0;
          c_complete = false;
        }
      in
      Array.iteri (fun i _ -> Queue.push i c.c_pending) specs;
      (* register before the accepted frame goes out, so a client that
         acts on it (wait_idle, campaign_state, attach) always finds
         the campaign and its pending count.  c_elock is held across
         both: the scheduler may already be picking the jobs up, but
         exec_one needs c_elock to emit, so the accepted frame still
         precedes the first job record on the wire *)
      Mutex.protect c.c_elock (fun () ->
          Mutex.protect t.lock (fun () ->
              Hashtbl.replace t.campaigns cid c;
              Queue.push c t.ready;
              t.pending_total <- t.pending_total + n;
              Condition.broadcast t.work);
          emit_conn conn ~typ:"campaign.accepted"
            [ ("cid", J.Str cid); ("jobs", J.Int n) ]))

let replay_record sub cid r =
  match r with
  | J.Obj kvs ->
    let typ =
      match List.assoc_opt "type" kvs with Some (J.Str s) -> s | _ -> "record"
    in
    let fields = List.filter (fun (k, _) -> k <> "type") kvs in
    if !(sub.sub_alive) then
      Obs.Stream.emit sub.sub_stream ~typ (fields @ [ ("cid", J.Str cid) ])
  | _ -> ()

let handle_attach t conn ~cid ~after =
  match find_campaign t cid with
  | None -> server_error conn ~cid (Printf.sprintf "unknown campaign %S" cid)
  | Some c ->
    Mutex.protect c.c_elock (fun () ->
        emit_conn conn ~typ:"campaign.attached"
          (( "cid", J.Str cid )
          :: progress_fields c
          @ [ ("complete", J.Bool c.c_complete) ]);
        let history = List.rev c.c_history in
        (* re-stream strictly after the acknowledged record: everything
           past its last occurrence in journal order, or the whole
           history when the client has seen nothing *)
        let to_replay =
          match after with
          | None -> history
          | Some ack ->
            (* suffix after the LAST occurrence of the acked record;
               an ack the server never sent replays everything *)
            let rec go best = function
              | [] -> best
              | r :: rest ->
                go (if Obs.Stream.job_key r = Some ack then rest else best) rest
            in
            go history history
        in
        List.iter (replay_record conn.k_sub cid) to_replay;
        if c.c_complete then
          emit_conn conn ~typ:"campaign.done"
            (done_fields c @ [ ("cid", J.Str cid) ])
        else c.c_sub <- Some conn.k_sub)

let handle_line t conn line =
  match Protocol.frame_of_line line with
  | Error msg -> server_error conn msg
  | Ok (Protocol.Submit { cid; spec }) -> handle_submit t conn ~cid ~spec
  | Ok (Protocol.Attach { cid; after }) -> handle_attach t conn ~cid ~after
  | Ok Protocol.Ping -> emit_conn conn ~typ:"pong" []
  | Ok Protocol.Bye -> raise Exit

(* ------------------------------------------------------------------ *)
(* Connections *)

let drop_conn t conn =
  conn.k_sub.sub_alive := false;
  Mutex.protect t.lock (fun () ->
      t.conns <- List.filter (fun k -> k != conn) t.conns);
  (* campaigns it owned keep running to completion (results stay
     journaled); its subscription just goes quiet *)
  try Unix.close conn.k_fd with Unix.Unix_error _ -> ()

(* One request line ([None] at end of input), or [Error] as soon as it
   outgrows [Protocol.max_frame_bytes]: a client that never sends a
   newline cannot grow the server's memory without bound. *)
let read_frame ic buf =
  Buffer.clear buf;
  let rec go () =
    match In_channel.input_char ic with
    | None -> if Buffer.length buf = 0 then None else Some (Ok (Buffer.contents buf))
    | Some '\n' -> Some (Ok (Buffer.contents buf))
    | Some _ when Buffer.length buf >= Protocol.max_frame_bytes -> Some (Error ())
    | Some c ->
      Buffer.add_char buf c;
      go ()
  in
  go ()

let reader t conn () =
  let ic = Unix.in_channel_of_descr conn.k_fd in
  let buf = Buffer.create 256 in
  let rec loop () =
    match read_frame ic buf with
    | None -> ()
    | Some (Ok line) ->
      if String.trim line <> "" then handle_line t conn line;
      loop ()
    | Some (Error ()) ->
      server_error conn
        (Printf.sprintf "request frame longer than %d bytes" Protocol.max_frame_bytes)
  in
  (try loop () with End_of_file | Exit | Sys_error _ -> ());
  drop_conn t conn

let handle_conn t fd =
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO send_timeout_s;
  let alive = ref true in
  let stream = Obs.Stream.create (socket_sink fd alive) in
  let conn =
    { k_fd = fd; k_sub = { sub_stream = stream; sub_alive = alive }; k_inflight = 0 }
  in
  emit_conn conn ~typ:"server.hello"
    [
      ("schema", J.Str Protocol.schema);
      ("version", J.Int Protocol.version);
      ("pool_workers", J.Int (Campaign.Pool.width t.pool));
      ("max_pending_jobs", J.Int t.cfg.max_pending_jobs);
      ("max_client_jobs", J.Int t.cfg.max_client_jobs);
    ];
  let th = Thread.create (reader t conn) () in
  Mutex.protect t.lock (fun () ->
      t.conns <- conn :: t.conns;
      t.threads <- th :: t.threads)

let accept_loop t () =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
      if Mutex.protect t.lock (fun () -> t.stopping) then
        (* the wake-up nudge from [stop], not a real client *)
        (try Unix.close fd with Unix.Unix_error _ -> ())
      else begin
        handle_conn t fd;
        loop ()
      end
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      if Mutex.protect t.lock (fun () -> t.stopping) then () else loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Recovery *)

let campaign_of_recovered (r : Journal.recovered) ~journal =
  match Campaign.Request.of_json r.Journal.rc_spec with
  | exception _ -> None
  | req ->
    let specs = Array.of_list req.Campaign.Request.specs in
    let n = Array.length specs in
    let started = Hashtbl.create 16 and donej = Hashtbl.create 16 in
    let ok = ref 0 and failed = ref 0 in
    List.iter
      (fun rec_j ->
        match Obs.Stream.job_key rec_j with
        | Some (j, 0) when j >= 0 && j < n -> Hashtbl.replace started j ()
        | Some (j, _) when j >= 0 && j < n ->
          Hashtbl.replace donej j ();
          (match J.member "status" rec_j with
          | Some (J.Str "ok") -> incr ok
          | _ -> incr failed)
        | _ -> ())
      r.Journal.rc_records;
    let complete = r.Journal.rc_complete || Hashtbl.length donej = n in
    let c =
      {
        c_cid = r.Journal.rc_cid;
        c_specs = specs;
        c_retries = req.Campaign.Request.retries;
        c_elock = Mutex.create ();
        c_journal = (if complete then None else journal ());
        c_pending = Queue.create ();
        c_skip_start = Hashtbl.create 7;
        c_history = List.rev r.Journal.rc_records;
        c_sub = None;
        c_owner = None;
        c_completed = Hashtbl.length donej;
        c_ok = !ok;
        c_failed = !failed;
        c_complete = complete;
      }
    in
    if not complete then
      Array.iteri
        (fun i _ ->
          if not (Hashtbl.mem donej i) then begin
            Queue.push i c.c_pending;
            (* a start that survived the crash must not be re-emitted *)
            if Hashtbl.mem started i then Hashtbl.replace c.c_skip_start i ()
          end)
        specs;
    Some c

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let create cfg =
  (* a dead client mid-write must be a sink error, not a process kill *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Option.iter
    (fun dir -> if not (Sys.file_exists dir) then Unix.mkdir dir 0o755)
    cfg.state_dir;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec listen_fd;
  if Sys.file_exists cfg.socket_path then Unix.unlink cfg.socket_path;
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 64;
  let pool = Campaign.Pool.create ?workers:cfg.workers () in
  let t =
    {
      cfg;
      pool;
      artifacts = Core.Toolchain.Artifacts.create ();
      listen_fd;
      lock = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      campaigns = Hashtbl.create 16;
      ready = Queue.create ();
      conns = [];
      pending_total = 0;
      running_total = 0;
      next_cid = 1;
      stopping = false;
      threads = [];
      sched = None;
    }
  in
  (* resume: every journal becomes an in-memory campaign (attachable),
     and incomplete ones re-queue exactly their unfinished jobs; one that
     cannot be resumed is reported, never silently dropped *)
  Option.iter
    (fun dir ->
      let recovered, skipped = Journal.recover ~dir in
      List.iter
        (fun (file, why) ->
          Printf.eprintf "xmtserved: skipping journal %s: %s\n%!" file why)
        skipped;
      List.iter
        (fun r ->
          let journal () =
            Some (Journal.reopen ~dir ~cid:r.Journal.rc_cid)
          in
          match campaign_of_recovered r ~journal with
          | None -> ()
          | Some c ->
            (* finished while crashing before the close mark: seal it *)
            if c.c_complete && Option.is_none c.c_journal
               && not r.Journal.rc_complete
            then begin
              let jn = Journal.reopen ~dir ~cid:c.c_cid in
              Journal.close_mark jn ~ok:c.c_ok ~failed:c.c_failed;
              Journal.close jn
            end;
            Hashtbl.replace t.campaigns c.c_cid c;
            if not (Queue.is_empty c.c_pending) then Queue.push c t.ready;
            t.pending_total <- t.pending_total + Queue.length c.c_pending)
        recovered)
    cfg.state_dir;
  (* register each thread before the next can add readers of its own,
     so [stop] never misses one *)
  t.sched <- Some (Domain.spawn (scheduler t));
  let acc = Thread.create (accept_loop t) () in
  Mutex.protect t.lock (fun () ->
      t.threads <- acc :: t.threads;
      Condition.broadcast t.work);
  t

let stop t =
  let already =
    Mutex.protect t.lock (fun () ->
        let was = t.stopping in
        t.stopping <- true;
        Condition.broadcast t.work;
        was)
  in
  if not already then begin
    (* closing the listening fd does not unblock a thread parked in
       accept(2); shut it down and nudge it with a throwaway connection *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try
       let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       (try Unix.connect fd (Unix.ADDR_UNIX t.cfg.socket_path)
        with Unix.Unix_error _ -> ());
       Unix.close fd
     with Unix.Unix_error _ -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (try Sys.remove t.cfg.socket_path with Sys_error _ -> ());
    (* unblock every reader *)
    let conns = Mutex.protect t.lock (fun () -> t.conns) in
    List.iter
      (fun k ->
        try Unix.shutdown k.k_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    let threads = Mutex.protect t.lock (fun () -> t.threads) in
    List.iter Thread.join threads;
    Option.iter Domain.join t.sched;
    Campaign.Pool.shutdown t.pool;
    (* journals of unfinished campaigns stay open-ended on disk — that
       is the resume contract — but release the file handles *)
    Mutex.protect t.lock (fun () ->
        Hashtbl.iter (fun _ c -> Option.iter Journal.close c.c_journal) t.campaigns)
  end

let join t =
  let threads = Mutex.protect t.lock (fun () -> t.threads) in
  List.iter Thread.join threads;
  Option.iter Domain.join t.sched

let wait_idle t =
  Mutex.protect t.lock (fun () ->
      while t.pending_total > 0 || t.running_total > 0 do
        Condition.wait t.idle t.lock
      done)

let campaign_state t cid =
  Mutex.protect t.lock (fun () ->
      Hashtbl.find_opt t.campaigns cid
      |> Option.map (fun c ->
             (c.c_completed, Array.length c.c_specs, c.c_complete)))
