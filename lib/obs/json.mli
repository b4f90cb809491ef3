(** The one JSON module: it sits below every other library, so the
    observability layer, the harness and the bench all share it.

    Two layouts: the compact single-line flavour for JSONL event
    streams, manifests and [--metrics-out] files, and a pretty flavour
    (2-space indent) for bench reports such as [BENCH_*.json].  A small
    parser reads either back so tests can validate what was written.
    Encoding is deterministic: no hash-order iteration, no locale,
    shortest float form that round-trips. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, single-line (no newlines are ever emitted, so a value per
    line is valid JSONL).  Non-finite floats serialize as [null]. *)

val to_string_pretty : t -> string
(** Multi-line, 2 spaces of indent per level; an empty list or object
    prints as [[]] or [{}].  Non-finite floats serialize as [null]. *)

val write_file : string -> t -> unit
(** Atomic publish of {!to_string} plus a newline: writes a unique
    per-process temp file next to [path], then renames over it, so a
    crash mid-write cannot leave a truncated document and concurrent
    writers to the same path can interleave freely; the survivor is one
    complete document.  The temp file is removed on failure. *)

val write_file_pretty : string -> t -> unit
(** {!write_file} with {!to_string_pretty}. *)

exception Parse_error of string

val of_string : string -> t
(** Parse one JSON document (the whole string).  Numbers without [.],
    [e] or [E] parse as [Int], everything else as [Float]; raises
    {!Parse_error} on malformed input. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on other constructors. *)
