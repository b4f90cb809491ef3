(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over byte ranges.

    The frame check of the wire protocol: every {!Protocol} frame
    carries the CRC of its header and payload, so a flipped bit on the
    wire is a typed [Bad_crc] error, never a misread frame.  It guards
    against corruption only; content is addressed by SHA-256. *)

val bytes : Bytes.t -> pos:int -> len:int -> int
(** CRC of [len] bytes starting at [pos], as an unsigned 32-bit value
    in a native [int].  Raises [Invalid_argument] on an out-of-bounds
    range. *)
