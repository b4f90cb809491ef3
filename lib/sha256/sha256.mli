(** SHA-256 (FIPS 180-4), pure OCaml over [Bytes]: the repo's one
    content hash.

    Everything that names content is addressed by it: store keys, the
    whole-file digest of {!Ipds_artifact.Object_file} containers (also
    the container's only integrity check), per-function content digests
    and slice fingerprints, the build memo key, and fleet ring
    placement.  It has no dependencies, so every library can reach it.

    Domain-safe and allocation-free per compression round; digests of
    the same bytes are identical across processes and platforms. *)

val digest_length : int
(** 32. *)

val bytes : Bytes.t -> pos:int -> len:int -> string
(** Raw 32-byte digest of [len] bytes starting at [pos]; raises
    [Invalid_argument] when the range is out of bounds. *)

val all : Bytes.t -> string
val string : string -> string

val to_hex : string -> string
(** Lowercase hex of a raw digest (or any string). *)

val hex_bytes : Bytes.t -> string
val hex_string : string -> string
