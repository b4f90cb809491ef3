(** Per-connection protocol logic of the event-loop {!Server}: the
    frame state machine, the [serve.*] metrics, typed-error
    classification, and the [Branch_events] span path. *)

module Reg = Ipds_obs.Registry

(** Stable counters (per-session deterministic work; byte-identical
    however concurrent sessions interleave) — the server bumps the
    frame counters itself since framing is transport-side. *)

val m_sessions : Reg.counter
val m_frames_in : Reg.counter
val m_frames_out : Reg.counter
val m_traces : Reg.counter
val m_events : Reg.counter
val m_branches : Reg.counter
val m_alarms : Reg.counter
val m_protocol_errors : Reg.counter
val m_state_errors : Reg.counter

val m_artifact_fetches : Reg.counter
(** [Fetch_artifact] frames answered with verified artifact bytes. *)

val m_artifact_pushes : Reg.counter
(** [Push_artifact] frames accepted (stored or byte-identical dup). *)

val m_artifact_verify_rejects : Reg.counter
(** Inbound images (pushed or peer-fetched) that failed full
    verification and were rejected with [corrupt-artifact]. *)

val m_artifact_peer_loads : Reg.counter
(** Local-store misses satisfied by fetching a verified artifact from a
    fleet peer.  Unstable: depends on which shard warmed first. *)

val m_timeouts : Reg.counter
(** Unstable (timing-dependent). *)

val now_micros : unit -> int
(** Wall clock in microseconds, for the unstable [serve.*_micros]
    stage histograms. *)

exception State_violation of string
(** A Ret/Branch event against an empty checker stack; the session
    turns it into a typed [Bad_state] error. *)

type t

val create :
  ?peer_fetch:(string -> (string, Protocol.err) result) ->
  store:Ipds_artifact.Store.t option ->
  cache:Ipds_core.System.t Lru.t ->
  unit ->
  t
(** Counts [serve.sessions].  Loaded systems are looked up in and
    inserted into [cache], which the server shares across sessions.
    [peer_fetch] is the fleet hook consulted on a [Load_key]
    local-store miss: it returns the raw container bytes of the key
    from a warm peer, which the session verifies
    ({!Ipds_artifact.Artifact.of_bytes} + {!Ipds_core.Image.validate})
    and publishes locally before serving — a cold shard warms itself
    instead of answering [unknown-artifact]. *)

val image_key : string -> string
(** The cache key of an inline [.ipds] image ("img:" ^ SHA-256 hex) —
    the server and routing clients must derive it identically, so it
    lives here. *)

val send_error : send:(Protocol.frame -> unit) -> Protocol.error_code -> string -> unit
(** Classify into the error counters and emit one [Error] frame. *)

val handle :
  t -> send:(Protocol.frame -> unit) -> Protocol.frame -> [ `Close | `Continue ]
(** The frame state machine for every frame but [Branch_events], which
    takes {!handle_events_span} (a [Branch_events] value here is a
    typed [Server_error]). *)

val handle_events_span :
  t ->
  send:(Protocol.frame -> unit) ->
  Bytes.t ->
  pos:int ->
  len:int ->
  [ `Close | `Continue ]
(** Check a CRC-validated [Branch_events] payload span: walk it with
    {!Protocol.walk_events} against the loaded function table
    (all-or-nothing — a malformed payload is a typed [Malformed] error
    and mutates nothing), feed the words to the checker (calls through
    [Checker.on_call_img]) and reply with one [Verdicts] frame.  The
    unstable [serve.decode_micros] histogram times the walk,
    [serve.batch_micros] the checker feed. *)

val close : t -> unit
(** Flush checker counter deltas of an abandoned trace.  Idempotent. *)
