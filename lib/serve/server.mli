(** The [xmtserved] campaign server.

    One process holds one warm {!Campaign.Pool} and one shared
    {!Core.Toolchain.Artifacts} cache (compiles and predict harvests,
    kept for the daemon's lifetime) and serves [xmt.campaign.v1]
    requests over a Unix-domain socket ({!Protocol}).  Design points:

    - {b streaming, not buffering}: per-job results leave as
      [xmt.events.v1] records the moment the job finishes — no
      whole-report materialization, whatever the campaign size;
    - {b fair multiplexing}: every pool worker takes its next job from
      a round-robin rotation of the campaigns with queued jobs, one job
      per campaign per turn, so a small sweep is never starved behind a
      thousand-job submission that arrived first;
    - {b bounded admission}: a server-wide pending-job cap and a
      per-connection in-flight quota; a submission that would exceed
      either is rejected immediately with a typed [server.overload]
      frame — admission never blocks;
    - {b checkpoint/resume}: with a [state_dir], every per-job record is
      journaled ({!Journal}) before it is sent, so a killed server
      restarts, re-queues exactly the unfinished jobs of every
      incomplete campaign, and [campaign.attach] re-streams from the
      last [(job, jseq)] the client acknowledges — each [(job, jseq)]
      is produced exactly once across the server's lifetimes;
    - {b no wedged clients}: records are written to a client when they
      are emitted, and a send that blocks for a few seconds (a client
      that stopped reading) ends that client's connection, so it cannot
      hold up anyone else's campaign.

    Compute runs on pool domains, the scheduler domain being the pool's
    first participant; IO (accept loop, per-connection readers) runs on
    threads of the main domain, which no job holds up.  All client-visible
    job records come from {!Campaign.job_step}, the per-job step a
    direct {!Campaign.run} executes, so a served stream canonicalizes
    byte-identical to a direct run. *)

type config = {
  socket_path : string;
  state_dir : string option;  (** journals live here; [None] = no resume *)
  workers : int option;  (** pool width; [None] = recommended count *)
  max_pending_jobs : int;  (** server-wide queued+running admission cap *)
  max_client_jobs : int;  (** per-connection in-flight quota *)
}

val default_config : socket_path:string -> config

type t

(** Bind and listen on [socket_path] (replacing a stale socket file),
    recover journaled campaigns from [state_dir] and re-queue their
    unfinished jobs, and start the accept thread and the scheduler
    domain.  Returns once the server is accepting connections. *)
val create : config -> t

(** Graceful shutdown: stop accepting, close client connections, let
    the jobs in flight finish (their records are journaled), shut the
    pool down.  Queued-but-undispatched jobs stay journaled for the
    next lifetime.  Idempotent. *)
val stop : t -> unit

(** Block until {!stop} has been called and the server threads exited. *)
val join : t -> unit

(** Test hook: block until no job is queued or running. *)
val wait_idle : t -> unit

(** Test hook: [(completed, total, complete)] for a campaign id. *)
val campaign_state : t -> string -> (int * int * bool) option
