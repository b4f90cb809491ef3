(** The verdict-server wire format: length-prefixed binary frames with a
    versioned magic and a CRC-32 trailer, payloads bit-packed with
    {!Ipds_core.Bitstream}.

    Frame layout (integers little-endian):
    {v
    0    4   magic "IPSV"
    4    1   protocol version
    5    1   frame tag
    6    4   payload length (u32)
    10   n   payload
    10+n 4   CRC-32 of bytes [0, 10+n)
    v}

    Decoding never raises: every way a frame can be damaged maps to a
    typed {!error_code}.  Magic and version are checked before the CRC
    (wrong-protocol streams get a precise error); the CRC covers the
    header too, so a flipped bit anywhere in a frame — including its
    length field — is detected. *)

val magic : string
val version : int

val header_bytes : int
(** Bytes before the payload (magic + version + tag + length). *)

val trailer_bytes : int
(** The CRC-32 trailer. *)

val default_max_frame : int
(** Default payload-size limit (4 MiB). *)

type error_code =
  | Bad_magic
  | Bad_version
  | Bad_crc
  | Oversized
  | Truncated
  | Unknown_frame
  | Malformed  (** CRC-valid payload that does not parse *)
  | Bad_state  (** well-formed frame at the wrong point of the session *)
  | Unknown_artifact
  | Corrupt_artifact
  | Timeout
  | Server_error
  | Overloaded
      (** the server's bounded reply queue or global in-flight cap was
          exceeded; the connection is closed after this frame *)
  | Unavailable  (** a fleet shard is down / unreachable *)

type err = { code : error_code; detail : string }

val error_code_to_string : error_code -> string

type summary = { total_events : int; total_branches : int; total_alarms : int }

type frame =
  | Load_key of string  (** client → server: load from the artifact store *)
  | Load_image of { name : string; image : string }
      (** client → server: inline [.ipds] bytes *)
  | Begin_trace
  | Branch_events of Ipds_machine.Event.t list
  | End_trace
  | Fetch_artifact of string
      (** client → server: the raw container bytes stored under this
          key — how a cold shard warms itself from a peer *)
  | Push_artifact of { key : string; image : string }
      (** client → server: store these container bytes under [key];
          the image is untrusted and fully verified before publish *)
  | Loaded of { name : string; cached : bool }
  | Trace_started
  | Verdicts of Ipds_core.Checker.alarm list
      (** alarms newly raised by the preceding [Branch_events] batch *)
  | Trace_summary of summary
  | Artifact_data of { key : string; image : string }
      (** reply to [Fetch_artifact]: verified container bytes *)
  | Artifact_pushed of { key : string; stored : bool }
      (** reply to [Push_artifact]; [stored = false] means a
          byte-identical entry was already present *)
  | Error of err

val verdict_to_string : Ipds_core.Checker.alarm -> string
(** Canonical one-line rendering, used by the remote-vs-local
    byte-identity assertions. *)

(** {2 Frame codec} *)

val encode_frame : frame -> Bytes.t

type decoded =
  | Frame of frame * int  (** decoded frame, offset just past it *)
  | Need_more of int  (** at least this many bytes from [pos] required *)
  | Fail of err

val decode_at : ?max_frame:int -> Bytes.t -> pos:int -> len:int -> decoded
(** Decode one frame from [buf[pos, pos+len)].  Never raises. *)

val decode_string : ?max_frame:int -> string -> (frame list, err) result
(** Decode a complete byte stream; a stream ending mid-frame is
    [Error {code = Truncated; _}].  Never raises. *)

(** {2 Incremental scanning and streaming batch decode}

    The event-loop server separates framing from payload decode: it
    {!scan_at}s its read buffer (header + CRC validation only), then
    either streams a [Branch_events] span straight into the checker via
    {!iter_branch_events} — no event list, no per-event strings — or
    falls back to {!decode_span} for the rare control frames. *)

type scanned =
  | Scan_frame of {
      tag : int;
      payload_pos : int;  (** absolute offset of the payload in [buf] *)
      payload_len : int;
      next : int;  (** absolute offset just past the frame *)
    }
  | Scan_need of int  (** at least this many bytes from [pos] required *)
  | Scan_fail of err

val scan_at : ?max_frame:int -> Bytes.t -> pos:int -> len:int -> scanned
(** Validate one frame's header and CRC in [buf[pos, pos+len)] without
    decoding the payload.  Never raises; fails exactly when
    {!decode_at} would fail before payload decode. *)

val decode_span :
  ?max_frame:int -> int -> Bytes.t -> pos:int -> len:int -> (frame, err) result
(** Decode a CRC-validated payload span (from {!Scan_frame}) into a
    frame.  Never raises. *)

val branch_events_tag : int

exception Malformed_payload of string

val iter_branch_events :
  ?limit:int ->
  Bytes.t ->
  pos:int ->
  len:int ->
  on_call:(string -> unit) ->
  on_ret:(unit -> unit) ->
  on_branch:(pc:int -> taken:bool -> unit) ->
  on_other:(unit -> unit) ->
  int
(** Stream one [Branch_events] payload span to the callbacks in event
    order, returning the total event count (all kinds).  Accepts and
    rejects byte-for-byte the same payloads as the generic decoder
    (differentially tested): raises {!Fast.Short} where the generic
    reader would overrun and {!Malformed_payload} with the same detail
    strings for bad lengths / event kinds. *)

module Fast : sig
  exception Short
  (** The payload span ended before the field being pulled. *)
end

(** {2 Socket transport} *)

val ignore_sigpipe : unit -> unit
(** Set SIGPIPE to ignored so a write to a disconnected peer raises
    [Unix_error (EPIPE, _, _)] instead of killing the process.  Called
    by {!Server.start} and {!Client.connect}; idempotent, a no-op on
    platforms without SIGPIPE. *)

val output_frame : Unix.file_descr -> frame -> unit
(** Write a whole frame (handles partial writes).  Raises [Unix_error]
    on IO failure — callers own the error policy for their peer. *)

type reader

val reader : ?max_frame:int -> Unix.file_descr -> reader
(** A buffered frame reader over a socket. *)

type input = In_frame of frame | In_eof | In_error of err

val input_frame : reader -> input
(** Blocking read of the next frame.  EOF between frames is [In_eof];
    EOF mid-frame is a [Truncated] error; a receive timeout configured
    with [SO_RCVTIMEO] surfaces as a [Timeout] error.  Never raises. *)
