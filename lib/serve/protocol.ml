(* The verdict-server wire format, version 2: length-prefixed binary
   frames with a versioned magic and a CRC-32 trailer, payloads in one
   byte-aligned codec (LEB128 varints, zigzag where a value can be
   negative, strings as a varint length and a blit).

   Frame layout (header integers little-endian):

     0   4   magic "IPSV"
     4   1   protocol version
     5   1   frame tag
     6   4   payload length (u32)
     10  n   payload
     10+n 4  CRC-32 of bytes [0, 10+n)

   Decoding never raises: every way a frame can be damaged maps to a
   typed {!error_code}.  The magic and version are checked before the
   CRC so a stream from the wrong protocol (a v1 peer included) gets a
   precise error; the CRC covers the header too, so a flipped bit
   anywhere in a frame — including its length field — is detected. *)

module Event = Ipds_machine.Event

let magic = "IPSV"
let version = 2
let header_bytes = 10
let trailer_bytes = 4
let default_max_frame = 4 * 1024 * 1024

type error_code =
  | Bad_magic
  | Bad_version
  | Bad_crc
  | Oversized
  | Truncated
  | Unknown_frame
  | Malformed
  | Bad_state
  | Unknown_artifact
  | Corrupt_artifact
  | Timeout
  | Server_error
  | Overloaded
  | Unavailable

type err = { code : error_code; detail : string }

let error_code_to_string = function
  | Bad_magic -> "bad-magic"
  | Bad_version -> "bad-version"
  | Bad_crc -> "bad-crc"
  | Oversized -> "oversized"
  | Truncated -> "truncated"
  | Unknown_frame -> "unknown-frame"
  | Malformed -> "malformed"
  | Bad_state -> "bad-state"
  | Unknown_artifact -> "unknown-artifact"
  | Corrupt_artifact -> "corrupt-artifact"
  | Timeout -> "timeout"
  | Server_error -> "server-error"
  | Overloaded -> "overloaded"
  | Unavailable -> "unavailable"

let error_code_to_int = function
  | Bad_magic -> 0
  | Bad_version -> 1
  | Bad_crc -> 2
  | Oversized -> 3
  | Truncated -> 4
  | Unknown_frame -> 5
  | Malformed -> 6
  | Bad_state -> 7
  | Unknown_artifact -> 8
  | Corrupt_artifact -> 9
  | Timeout -> 10
  | Server_error -> 11
  | Overloaded -> 12
  | Unavailable -> 13

let error_code_of_int = function
  | 0 -> Some Bad_magic
  | 1 -> Some Bad_version
  | 2 -> Some Bad_crc
  | 3 -> Some Oversized
  | 4 -> Some Truncated
  | 5 -> Some Unknown_frame
  | 6 -> Some Malformed
  | 7 -> Some Bad_state
  | 8 -> Some Unknown_artifact
  | 9 -> Some Corrupt_artifact
  | 10 -> Some Timeout
  | 11 -> Some Server_error
  | 12 -> Some Overloaded
  | 13 -> Some Unavailable
  | _ -> None

type summary = { total_events : int; total_branches : int; total_alarms : int }

type frame =
  | Load_key of string
  | Load_image of { name : string; image : string }
  | Begin_trace
  | Branch_events of int array
  | End_trace
  | Fetch_artifact of string
  | Push_artifact of { key : string; image : string }
  | Loaded of { name : string; cached : bool; funcs : string array }
  | Trace_started
  | Verdicts of Ipds_core.Checker.alarm list
  | Trace_summary of summary
  | Artifact_data of { key : string; image : string }
  | Artifact_pushed of { key : string; stored : bool }
  | Error of err

let verdict_to_string (a : Ipds_core.Checker.alarm) =
  Printf.sprintf "%s pc=%d expected=%c actual=%c seq=%d" a.fname a.branch_pc
    (Ipds_core.Status.to_char a.expected)
    (if a.actual_taken then 'T' else 'N')
    a.sequence

(* {2 Event words}

   One checker-relevant event is one int, [(arg lsl 2) lor op]: the
   branch pc for a branch, the callee's index in the [Loaded] function
   table for a call (the table's length marks an extern call, which the
   server skips exactly as [Replay.feed] does), and 0 for a return.  A
   return word with any other argument is an unknown op, reserved for
   later event kinds. *)

let op_call = 0
let op_ret = 1
let op_taken = 2
let op_not_taken = 3
let event_word ~op ~arg = (arg lsl 2) lor op

let func_index funcs =
  let h = Hashtbl.create (2 * Array.length funcs + 1) in
  Array.iteri (fun i f -> Hashtbl.replace h f i) funcs;
  let extern = Array.length funcs in
  fun name -> try Hashtbl.find h name with Not_found -> extern

let word_of_event ~index (e : Event.t) =
  match e.Event.kind with
  | Event.Call { callee } -> Some (event_word ~op:op_call ~arg:(index callee))
  | Event.Ret -> Some op_ret
  | Event.Branch { taken; _ } ->
      Some
        (event_word ~op:(if taken then op_taken else op_not_taken) ~arg:e.Event.pc)
  | Event.Alu | Event.Load _ | Event.Store _ | Event.Jump _ | Event.Input_read
  | Event.Output_write _ | Event.Fault_inject _ ->
      None

(* {2 Payload codec} *)

(* A growable byte buffer.  [put_varint] writes the int's 63-bit pattern
   as unsigned LEB128, so every int round-trips (a negative one takes
   the full 9 bytes); [put_zigzag] keeps small negatives short. *)
type enc = { mutable buf : Bytes.t; mutable len : int }

let enc_create n = { buf = Bytes.create n; len = 0 }

let ensure e n =
  if e.len + n > Bytes.length e.buf then begin
    let bigger = Bytes.create (max (e.len + n) (2 * Bytes.length e.buf)) in
    Bytes.blit e.buf 0 bigger 0 e.len;
    e.buf <- bigger
  end

let put_byte e b =
  ensure e 1;
  Bytes.unsafe_set e.buf e.len (Char.unsafe_chr b);
  e.len <- e.len + 1

let put_varint e v =
  ensure e 9;
  let v = ref v in
  while !v lsr 7 <> 0 do
    Bytes.unsafe_set e.buf e.len (Char.unsafe_chr (!v land 0x7F lor 0x80));
    e.len <- e.len + 1;
    v := !v lsr 7
  done;
  Bytes.unsafe_set e.buf e.len (Char.unsafe_chr !v);
  e.len <- e.len + 1

let put_zigzag e v = put_varint e ((v lsl 1) lxor (v asr 62))
let put_bool e b = put_byte e (if b then 1 else 0)

let put_string e s =
  let n = String.length s in
  put_varint e n;
  ensure e n;
  Bytes.blit_string s 0 e.buf e.len n;
  e.len <- e.len + n

let put_status e (s : Ipds_core.Status.t) =
  put_byte e
    (match s with
    | Ipds_core.Status.Taken -> 0
    | Ipds_core.Status.Not_taken -> 1
    | Ipds_core.Status.Unknown -> 2)

(* The reading side: a cursor over one payload span.  Running off its
   end raises [Short]; a structurally bad field raises
   [Malformed_payload].  Both become a typed [Malformed] error. *)
exception Short
exception Malformed_payload of string

let fail m = raise (Malformed_payload m)

type dec = { src : Bytes.t; mutable pos : int; lim : int }

let get_byte d =
  if d.pos >= d.lim then raise Short;
  let b = Char.code (Bytes.unsafe_get d.src d.pos) in
  d.pos <- d.pos + 1;
  b

(* Nine bytes carry all 63 bits; a tenth would be an over-long
   encoding. *)
let get_varint d =
  let rec go acc shift =
    let b = get_byte d in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then acc
    else if shift >= 56 then fail "over-long varint"
    else go acc (shift + 7)
  in
  go 0 0

let get_zigzag d =
  let z = get_varint d in
  (z lsr 1) lxor -(z land 1)

let get_bool d =
  match get_byte d with 0 -> false | 1 -> true | _ -> fail "bad bool"

(* Every element of a list or string takes at least one byte, so a
   count above the bytes left is a lie — rejected before anything is
   allocated for it. *)
let get_count ~what d =
  let n = get_varint d in
  if n < 0 || n > d.lim - d.pos then fail (what ^ " out of range");
  n

let get_string d =
  let n = get_count ~what:"string length" d in
  let s = Bytes.sub_string d.src d.pos n in
  d.pos <- d.pos + n;
  s

let get_status d : Ipds_core.Status.t =
  match get_byte d with
  | 0 -> Ipds_core.Status.Taken
  | 1 -> Ipds_core.Status.Not_taken
  | 2 -> Ipds_core.Status.Unknown
  | _ -> fail "bad status"

let put_verdict e (a : Ipds_core.Checker.alarm) =
  put_string e a.fname;
  put_zigzag e a.branch_pc;
  put_status e a.expected;
  put_bool e a.actual_taken;
  put_varint e a.sequence

let get_verdict d : Ipds_core.Checker.alarm =
  let fname = get_string d in
  let branch_pc = get_zigzag d in
  let expected = get_status d in
  let actual_taken = get_bool d in
  let sequence = get_varint d in
  { fname; branch_pc; expected; actual_taken; sequence }

let get_list d get =
  let n = get_count ~what:"list length" d in
  List.init n (fun _ -> get d)

(* {2 The event walker}

   The one decoder of a [Branch_events] payload — a varint count, then
   that many event words.  It validates every word (known op, callee
   index at most [nfuncs]) and copies the words into a staging array
   before the caller acts on any of them, so a payload that turns out
   malformed mid-batch changes nothing. *)

let branch_events_tag = 4

let walk_events ~nfuncs buf ~pos ~len into : (int array * int, string) result =
  let d = { src = buf; pos; lim = pos + len } in
  match
    let n = get_count ~what:"event count" d in
    let words =
      if Array.length into >= n then into
      else Array.make (max n (2 * Array.length into)) 0
    in
    for i = 0 to n - 1 do
      let w = get_varint d in
      let op = w land 3 and arg = w asr 2 in
      if op = op_call then begin
        if arg < 0 || arg > nfuncs then fail "callee index out of range"
      end
      else if op = op_ret && arg <> 0 then
        fail (Printf.sprintf "unknown event word %d" w);
      Array.unsafe_set words i w
    done;
    if d.pos <> d.lim then fail "trailing bytes after the events";
    (words, n)
  with
  | r -> Ok r
  | exception Malformed_payload m -> Error m
  | exception Short -> Error "payload ends prematurely"

let tag_of_frame = function
  | Load_key _ -> 1
  | Load_image _ -> 2
  | Begin_trace -> 3
  | Branch_events _ -> branch_events_tag
  | End_trace -> 5
  | Fetch_artifact _ -> 6
  | Push_artifact _ -> 7
  | Loaded _ -> 16
  | Trace_started -> 17
  | Verdicts _ -> 18
  | Trace_summary _ -> 19
  | Artifact_data _ -> 20
  | Artifact_pushed _ -> 21
  | Error _ -> 31

let encode_payload e = function
  | Load_key key -> put_string e key
  | Load_image { name; image } ->
      put_string e name;
      put_string e image
  | Begin_trace -> ()
  | Branch_events words ->
      put_varint e (Array.length words);
      Array.iter (put_varint e) words
  | End_trace -> ()
  | Fetch_artifact key -> put_string e key
  | Push_artifact { key; image } ->
      put_string e key;
      put_string e image
  | Loaded { name; cached; funcs } ->
      put_string e name;
      put_bool e cached;
      put_varint e (Array.length funcs);
      Array.iter (put_string e) funcs
  | Trace_started -> ()
  | Verdicts vs ->
      put_varint e (List.length vs);
      List.iter (put_verdict e) vs
  | Trace_summary { total_events; total_branches; total_alarms } ->
      put_varint e total_events;
      put_varint e total_branches;
      put_varint e total_alarms
  | Artifact_data { key; image } ->
      put_string e key;
      put_string e image
  | Artifact_pushed { key; stored } ->
      put_string e key;
      put_bool e stored
  | Error { code; detail } ->
      put_byte e (error_code_to_int code);
      put_string e detail

(* Control frames; [Branch_events] goes through {!walk_events}. *)
let decode_payload tag d =
  match tag with
  | 1 -> Some (Load_key (get_string d))
  | 2 ->
      let name = get_string d in
      let image = get_string d in
      Some (Load_image { name; image })
  | 3 -> Some Begin_trace
  | 5 -> Some End_trace
  | 6 -> Some (Fetch_artifact (get_string d))
  | 7 ->
      let key = get_string d in
      let image = get_string d in
      Some (Push_artifact { key; image })
  | 16 ->
      let name = get_string d in
      let cached = get_bool d in
      let n = get_count ~what:"list length" d in
      let funcs = Array.init n (fun _ -> get_string d) in
      Some (Loaded { name; cached; funcs })
  | 17 -> Some Trace_started
  | 18 -> Some (Verdicts (get_list d get_verdict))
  | 19 ->
      let total_events = get_varint d in
      let total_branches = get_varint d in
      let total_alarms = get_varint d in
      Some (Trace_summary { total_events; total_branches; total_alarms })
  | 20 ->
      let key = get_string d in
      let image = get_string d in
      Some (Artifact_data { key; image })
  | 21 ->
      let key = get_string d in
      let stored = get_bool d in
      Some (Artifact_pushed { key; stored })
  | 31 -> (
      match error_code_of_int (get_byte d) with
      | Some code -> Some (Error { code; detail = get_string d })
      | None -> fail "bad error code")
  | _ -> None

(* {2 Frame codec} *)

let set_u32_le b pos v =
  for i = 0 to 3 do
    Bytes.unsafe_set b (pos + i) (Char.unsafe_chr ((v lsr (8 * i)) land 0xFF))
  done

let get_u32_le b pos =
  let byte i = Char.code (Bytes.get b (pos + i)) in
  byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24)

(* Write the header at [pos] for a payload already in place after it,
   and the CRC trailer after the payload ([b] has room for it). *)
let frame_around b ~pos ~tag ~plen =
  Bytes.blit_string magic 0 b pos 4;
  Bytes.set b (pos + 4) (Char.chr version);
  Bytes.set b (pos + 5) (Char.chr tag);
  set_u32_le b (pos + 6) plen;
  set_u32_le b (pos + header_bytes + plen)
    (Crc32.bytes b ~pos ~len:(header_bytes + plen))

let encode_frame f =
  let e = enc_create 64 in
  e.len <- header_bytes;
  encode_payload e f;
  ensure e trailer_bytes;
  frame_around e.buf ~pos:0 ~tag:(tag_of_frame f) ~plen:(e.len - header_bytes);
  Bytes.sub e.buf 0 (e.len + trailer_bytes)

(* A [Branch_events] frame built in place, one word at a time.  Words
   start after room for the header and the longest count varint; [seal]
   writes the count right before the words and the header right before
   the count, so the frame is contiguous without moving a word. *)
module Batch = struct
  let prefix = header_bytes + 9

  type t = { e : enc; mutable n : int }

  let create () =
    let e = enc_create 4096 in
    e.len <- prefix;
    { e; n = 0 }

  let clear b =
    b.e.len <- prefix;
    b.n <- 0

  let add b w =
    put_varint b.e w;
    b.n <- b.n + 1

  let length b = b.n

  let seal b =
    let c = enc_create 9 in
    put_varint c b.n;
    let count_pos = prefix - c.len in
    let pos = count_pos - header_bytes in
    Bytes.blit c.buf 0 b.e.buf count_pos c.len;
    ensure b.e trailer_bytes;
    frame_around b.e.buf ~pos ~tag:branch_events_tag ~plen:(b.e.len - count_pos);
    (b.e.buf, pos, b.e.len + trailer_bytes - pos)
end

type decoded =
  | Frame of frame * int  (** decoded frame, offset just past it *)
  | Need_more of int  (** at least this many bytes from [pos] required *)
  | Fail of err

(* Header + CRC validation without touching the payload, so an
   event-loop server can route a validated span to {!walk_events}
   without materializing the frame. *)
type scanned =
  | Scan_frame of {
      tag : int;
      payload_pos : int;  (** absolute offset of the payload in [buf] *)
      payload_len : int;
      next : int;  (** absolute offset just past the frame *)
    }
  | Scan_need of int
  | Scan_fail of err

let magic_at buf pos =
  Bytes.get buf pos = 'I'
  && Bytes.get buf (pos + 1) = 'P'
  && Bytes.get buf (pos + 2) = 'S'
  && Bytes.get buf (pos + 3) = 'V'

let scan_at ?(max_frame = default_max_frame) buf ~pos ~len =
  if len < header_bytes then Scan_need header_bytes
  else if not (magic_at buf pos) then
    Scan_fail { code = Bad_magic; detail = "bad frame magic" }
  else if Char.code (Bytes.get buf (pos + 4)) <> version then
    Scan_fail
      {
        code = Bad_version;
        detail =
          Printf.sprintf "protocol version %d, expected %d"
            (Char.code (Bytes.get buf (pos + 4)))
            version;
      }
  else
    let tag = Char.code (Bytes.get buf (pos + 5)) in
    let plen = get_u32_le buf (pos + 6) in
    if plen > max_frame then
      Scan_fail
        {
          code = Oversized;
          detail = Printf.sprintf "payload of %d bytes exceeds limit %d" plen max_frame;
        }
    else if len < header_bytes + plen + trailer_bytes then
      Scan_need (header_bytes + plen + trailer_bytes)
    else if
      get_u32_le buf (pos + header_bytes + plen)
      <> Crc32.bytes buf ~pos ~len:(header_bytes + plen)
    then Scan_fail { code = Bad_crc; detail = "frame CRC mismatch" }
    else
      Scan_frame
        {
          tag;
          payload_pos = pos + header_bytes;
          payload_len = plen;
          next = pos + header_bytes + plen + trailer_bytes;
        }

(* Decode a CRC-validated payload span into a frame value.  A payload
   must be consumed exactly: trailing bytes are malformed. *)
let decode_span tag buf ~pos ~len =
  let malformed m : (frame, err) result = Error { code = Malformed; detail = m } in
  if tag = branch_events_tag then
    match walk_events ~nfuncs:max_int buf ~pos ~len [||] with
    | Ok (words, n) -> Ok (Branch_events (Array.sub words 0 n))
    | Error m -> malformed m
  else
    let d = { src = buf; pos; lim = pos + len } in
    match decode_payload tag d with
    | Some f when d.pos = d.lim -> Ok f
    | Some _ -> malformed "trailing bytes after the payload"
    | None ->
        Error
          { code = Unknown_frame; detail = Printf.sprintf "unknown frame tag %d" tag }
    | exception Malformed_payload m -> malformed m
    | exception Short -> malformed "payload ends prematurely"

let decode_at ?max_frame buf ~pos ~len =
  match scan_at ?max_frame buf ~pos ~len with
  | Scan_need n -> Need_more n
  | Scan_fail e -> Fail e
  | Scan_frame { tag; payload_pos; payload_len; next } -> (
      match decode_span tag buf ~pos:payload_pos ~len:payload_len with
      | Ok f -> Frame (f, next)
      | Error e -> Fail e)

let decode_string ?max_frame s =
  let buf = Bytes.of_string s in
  let total = Bytes.length buf in
  let rec go pos acc =
    if pos = total then Ok (List.rev acc)
    else
      match decode_at ?max_frame buf ~pos ~len:(total - pos) with
      | Frame (f, next) -> go next (f :: acc)
      | Need_more _ ->
          Error { code = Truncated; detail = "stream ends mid-frame" }
      | Fail e -> Error e
  in
  go 0 []

(* {2 Socket transport} *)

(* A peer that disconnects before reading our reply turns the next
   [Unix.write] into a SIGPIPE, whose default disposition kills the
   whole process — session-level [Unix_error EPIPE] handling only works
   once the signal is ignored.  Both [Server.start] and [Client.connect]
   call this; [Invalid_argument] covers platforms without SIGPIPE. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let rec write_all fd b pos len =
  if len > 0 then
    match Unix.write fd b pos len with
    | n -> write_all fd b (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b pos len

let output_frame fd f =
  let b = encode_frame f in
  write_all fd b 0 (Bytes.length b)

let output_batch fd batch =
  let b, pos, len = Batch.seal batch in
  Batch.clear batch;
  write_all fd b pos len

type reader = {
  fd : Unix.file_descr;
  max_frame : int;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable len : int;
}

let reader ?(max_frame = default_max_frame) fd =
  { fd; max_frame; buf = Bytes.create 65536; start = 0; len = 0 }

type input = In_frame of frame | In_eof | In_error of err

let rec input_frame r =
  match decode_at ~max_frame:r.max_frame r.buf ~pos:r.start ~len:r.len with
  | Frame (f, next) ->
      r.len <- r.len - (next - r.start);
      r.start <- next;
      In_frame f
  | Fail e -> In_error e
  | Need_more need -> (
      (* Compact and grow so [need] bytes fit from [start]. *)
      if r.start > 0 && r.start + need > Bytes.length r.buf then begin
        Bytes.blit r.buf r.start r.buf 0 r.len;
        r.start <- 0
      end;
      if need > Bytes.length r.buf then begin
        let bigger = Bytes.create (max need (2 * Bytes.length r.buf)) in
        Bytes.blit r.buf r.start bigger 0 r.len;
        r.start <- 0;
        r.buf <- bigger
      end;
      let off = r.start + r.len in
      match Unix.read r.fd r.buf off (Bytes.length r.buf - off) with
      | 0 ->
          if r.len = 0 then In_eof
          else In_error { code = Truncated; detail = "connection closed mid-frame" }
      | n ->
          r.len <- r.len + n;
          input_frame r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> input_frame r
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          In_error { code = Timeout; detail = "session timed out waiting for a frame" }
      | exception Unix.Unix_error (e, _, _) ->
          In_error { code = Truncated; detail = Unix.error_message e })
