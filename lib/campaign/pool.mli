(** Persistent pull-based worker pool.

    The campaign engine's executor: helper domains are spawned once
    ({!create}) and parked between runs, so repeated {!run} calls — a
    CLI campaign, every bench iteration, a long sweep driver, the
    [xmtserved] scheduler — pay the [Domain.spawn] cost once instead of
    per campaign.  A run is one step function that every participant
    calls until it returns [false]; the caller's step pulls its next
    piece of work from a cursor of its own, so a slow job holds up only
    the participant running it.

    The pool schedules {e which participant runs}, nothing more: what a
    step takes, where its result goes, retries and telemetry belong to
    the caller ({!Campaign.run_request}, [Serve.Server]), which is what
    keeps submission-order determinism independent of the completion
    order. *)

type t

(** [create ~workers ()] spawns [workers - 1] helper domains (the
    submitting domain is always participant 0 of a run).  [workers]
    defaults to [Domain.recommended_domain_count ()]; it is clamped to
    at least 1. *)
val create : ?workers:int -> unit -> t

(** Total executor width (helpers + the submitting domain). *)
val width : t -> int

(** [run pool step] makes each participant call [step ~worker] until it
    returns [false], and returns when every participant has stopped.
    The caller is participant 0; [participants] (default: the pool
    width, clamped to [1..width]) caps how many take part, so with one
    the steps run in the calling domain and no helper wakes.  [worker]
    is the participant's index — use it to index per-participant state
    without locks.

    A participant whose [step] raises stops; the others go on until
    their [step] returns [false], and then the first exception is
    re-raised here.  One run at a time per pool.  Raises
    [Invalid_argument] after {!shutdown}. *)
val run : t -> ?participants:int -> (worker:int -> bool) -> unit

(** Stop and join the helper domains.  Idempotent and safe to call
    concurrently from several threads or domains: exactly one caller
    performs the join, and every [shutdown] call — including racing
    ones — returns only after the helper domains have terminated.
    Must not be called while a {!run} is in flight. *)
val shutdown : t -> unit

(** [with_pool ~workers f] runs [f] with a fresh pool and always shuts
    it down. *)
val with_pool : ?workers:int -> (t -> 'a) -> 'a
