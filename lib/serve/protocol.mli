(** The verdict-server wire format, version 2: length-prefixed binary
    frames with a versioned magic and a CRC-32 trailer.  Payloads use
    one byte-aligned codec: integers are LEB128 varints (zigzag-encoded
    where a value can be negative), strings a varint length followed by
    the bytes, booleans and small enums one byte.

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
    (wrong-protocol streams, v1 peers included, get a precise
    [Bad_version]); the CRC covers the header too, so a flipped bit
    anywhere in a frame — including its length field — is detected.
    A payload must be consumed exactly: trailing bytes are [Malformed]. *)

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
  | Branch_events of int array
      (** client → server: one {!event_word} per checker-relevant event,
          in commit order *)
  | End_trace
  | Fetch_artifact of string
      (** client → server: the raw container bytes stored under this
          key — how a cold shard warms itself from a peer *)
  | Push_artifact of { key : string; image : string }
      (** client → server: store these container bytes under [key];
          the image is untrusted and fully verified before publish *)
  | Loaded of { name : string; cached : bool; funcs : string array }
      (** [funcs] is the loaded system's function table in
          [System.funcs] order: call words name callees by index into
          it *)
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

(** {2 Event words}

    A [Branch_events] payload is a varint count followed by one varint
    word per event, [(arg lsl 2) lor op]:
    {v
    op 0  call               arg = callee index in the Loaded table;
                             the table's length marks an extern call
    op 1  return             arg = 0 (any other arg is an unknown op)
    op 2  branch taken       arg = branch pc
    op 3  branch not taken   arg = branch pc
    v}
    Extern calls travel so that event counts match the interpreter's
    stream; the server skips them exactly as [Replay.feed] does. *)

val op_call : int
val op_ret : int
val op_taken : int
val op_not_taken : int

val event_word : op:int -> arg:int -> int

val func_index : string array -> string -> int
(** [func_index funcs] maps a callee name to its index in a [Loaded]
    function table, or to [Array.length funcs] (extern) when absent. *)

val word_of_event : index:(string -> int) -> Ipds_machine.Event.t -> int option
(** The event's word, [None] for events the checker never reads. *)

(** {2 Frame codec} *)

val encode_frame : frame -> Bytes.t

(** A [Branch_events] frame built in place: words are appended straight
    into one reusable buffer, and {!seal} adds count, header and CRC
    around them without copying a word. *)
module Batch : sig
  type t

  val create : unit -> t
  val add : t -> int -> unit
  val length : t -> int
  (** Words added since the last {!clear}. *)

  val seal : t -> Bytes.t * int * int
  (** The finished frame as (buffer, offset, length), valid until the
      next {!add} or {!clear}. *)

  val clear : t -> unit
end

type decoded =
  | Frame of frame * int  (** decoded frame, offset just past it *)
  | Need_more of int  (** at least this many bytes from [pos] required *)
  | Fail of err

val decode_at : ?max_frame:int -> Bytes.t -> pos:int -> len:int -> decoded
(** Decode one frame from [buf[pos, pos+len)].  Never raises. *)

val decode_string : ?max_frame:int -> string -> (frame list, err) result
(** Decode a complete byte stream; a stream ending mid-frame is
    [Error {code = Truncated; _}].  Never raises. *)

(** {2 Incremental scanning and the event walker}

    The event-loop server separates framing from payload decode: it
    {!scan_at}s its read buffer (header + CRC validation only), then
    hands a [Branch_events] span to {!walk_events} — no event list, no
    frame value — and every other frame to {!decode_span}.
    {!decode_span} decodes [Branch_events] through {!walk_events} too,
    so there is one event decoder. *)

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

val decode_span : int -> Bytes.t -> pos:int -> len:int -> (frame, err) result
(** Decode a CRC-validated payload span (from {!Scan_frame}) into a
    frame.  Never raises.  Length fields are bounded by the bytes left
    in the span, so the bound follows the frame limit in force. *)

val branch_events_tag : int

val walk_events :
  nfuncs:int ->
  Bytes.t ->
  pos:int ->
  len:int ->
  int array ->
  (int array * int, string) result
(** [walk_events ~nfuncs buf ~pos ~len into] validates a whole
    [Branch_events] payload span and copies its words into [into]
    (or into a larger array when [into] is too small), returning the
    array and the event count.  Every word is checked before the caller
    sees any: a known op, and a callee index in [0, nfuncs] ([nfuncs]
    being the extern marker).  Errors are the [Malformed] detail; never
    raises. *)

(** {2 Socket transport} *)

val ignore_sigpipe : unit -> unit
(** Set SIGPIPE to ignored so a write to a disconnected peer raises
    [Unix_error (EPIPE, _, _)] instead of killing the process.  Called
    by {!Server.start} and {!Client.connect}; idempotent, a no-op on
    platforms without SIGPIPE. *)

val output_frame : Unix.file_descr -> frame -> unit
(** Write a whole frame (handles partial writes).  Raises [Unix_error]
    on IO failure — callers own the error policy for their peer. *)

val output_batch : Unix.file_descr -> Batch.t -> unit
(** Seal, clear and write a {!Batch} frame, as {!output_frame}. *)

type reader

val reader : ?max_frame:int -> Unix.file_descr -> reader
(** A buffered frame reader over a socket. *)

type input = In_frame of frame | In_eof | In_error of err

val input_frame : reader -> input
(** Blocking read of the next frame.  EOF between frames is [In_eof];
    EOF mid-frame is a [Truncated] error; a receive timeout configured
    with [SO_RCVTIMEO] surfaces as a [Timeout] error.  Never raises. *)
