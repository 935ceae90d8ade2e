(** Campaign-service benchmark: an in-process [Serve.Server] (one warm
    pool + shared artifact cache) fed by concurrent clients over its
    Unix-domain socket, measuring sustained job throughput and the
    client-observed enqueue-to-done latency distribution.

    Four clients each submit one campaign (1200 jobs total — above the
    1000-job floor the acceptance criteria set) and stream their results
    back concurrently, so the run exercises admission, fair round-robin
    scheduling and per-connection demultiplexing, not just the pool.
    Every job's latency is measured from the client's submit to the
    arrival of its [job.done] record and reported as p50/p95/p99.  The
    fatal check is against collapse: served throughput is at least 1/20
    of the same jobs run in-process ({!Campaign.run_request}) on a pool
    of the same width. *)

open Bench_util
module J = Obs.Json

let job_json i =
  J.Obj
    [
      ("name", J.Str (Printf.sprintf "j%04d" i));
      ("inline", J.Str (Core.Kernels.vecadd ~n:16));
    ]

let spec_json ~base n =
  J.Obj
    [
      ("schema", J.Str "xmt.campaign.v1");
      ("defaults", J.Obj [ ("preset", J.Str "tiny") ]);
      ("jobs", J.List (List.init n (fun i -> job_json (base + i))));
    ]

(* one client: submit a campaign, stream it to completion, record the
   submit-to-job.done latency of every job *)
let client_thread ~sock ~idx ~jobs_per_client out =
  let c = Serve.Client.connect sock in
  let t0 = Obs.Clock.now () in
  match Serve.Client.submit c (spec_json ~base:(idx * jobs_per_client) jobs_per_client) with
  | Error frame ->
    failwith (Printf.sprintf "serve bench: client %d rejected: %s" idx (J.to_string frame))
  | Ok cid ->
    let lats = ref [] in
    let s =
      Serve.Client.stream_until_done c ~cid ~on_record:(fun r ->
          match r with
          | J.Obj kvs when List.assoc_opt "type" kvs = Some (J.Str "job.done") ->
            lats := Obs.Clock.elapsed_since t0 :: !lats
          | _ -> ())
    in
    Serve.Client.close c;
    if s.Serve.Client.s_failed > 0 then
      failwith (Printf.sprintf "serve bench: client %d had %d failed job(s)" idx
                  s.Serve.Client.s_failed);
    out := !lats

let percentile sorted q =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let run () =
  section "campaign service: concurrent clients, throughput + latency";
  let clients = 4 in
  let jobs_per_client = 300 in
  let total = clients * jobs_per_client in
  let host_cores = Domain.recommended_domain_count () in
  let workers = if !jobs > 1 then !jobs else min 4 (max 2 host_cores) in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xmt-bench-serve-%d.sock" (Unix.getpid ()))
  in
  let srv =
    Serve.Server.create
      { (Serve.Server.default_config ~socket_path:sock) with workers = Some workers }
  in
  Printf.printf "%d jobs from %d clients over %s (%d workers)...\n%!" total
    clients sock workers;
  let outs = Array.init clients (fun _ -> ref []) in
  let (), wall_secs =
    wall (fun () ->
        let threads =
          List.init clients (fun idx ->
              Thread.create
                (fun () -> client_thread ~sock ~idx ~jobs_per_client outs.(idx))
                ())
        in
        List.iter Thread.join threads)
  in
  Serve.Server.stop srv;
  let lats = Array.concat (List.map (fun r -> Array.of_list !r) (Array.to_list outs)) in
  if Array.length lats <> total then
    failwith (Printf.sprintf "serve bench: %d latencies for %d jobs"
                (Array.length lats) total);
  Array.sort compare lats;
  let ms q = percentile lats q *. 1e3 in
  let jobs_per_sec =
    if wall_secs > 0.0 then float_of_int total /. wall_secs else 0.0
  in
  Printf.printf
    "  %6.2f s wall, %.0f jobs/s\n  enqueue-to-done: p50 %.1f ms, p95 %.1f ms, p99 %.1f ms\n%!"
    wall_secs jobs_per_sec (ms 0.50) (ms 0.95) (ms 0.99);
  let req =
    Campaign.Request.make ~jobs:workers
      (Campaign.jobs_of_json (spec_json ~base:0 total))
  in
  let rs, direct_secs =
    wall (fun () -> Campaign.run_request ~pool:(pool ~workers) ~artifacts req)
  in
  if Campaign.failed_count rs > 0 then failwith "serve bench: an in-process job failed";
  let direct_jobs_per_sec = float_of_int total /. direct_secs in
  check
    (jobs_per_sec >= direct_jobs_per_sec /. 20.0)
    "served throughput is at least 1/20 of in-process (%.0f vs %.0f jobs/s)"
    jobs_per_sec direct_jobs_per_sec
