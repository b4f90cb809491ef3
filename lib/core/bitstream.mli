(** Bit-granular serialization, for the packed table images the compiler
    attaches to the binary.  Fields are written/read LSB-first within a
    little-endian byte stream. *)

module Writer : sig
  type t

  val create : unit -> t
  val push : t -> width:int -> int -> unit
  (** Append [width] bits (0 ≤ width ≤ 62); the value must fit. *)

  val align_byte : t -> unit
  (** Pad with zero bits to the next byte boundary. *)

  val bits_written : t -> int
  val contents : t -> Bytes.t
end

module Reader : sig
  type t

  val of_bytes : Bytes.t -> t
  val pull : t -> width:int -> int
  (** Raises [Invalid_argument] when reading past the end. *)

  val align_byte : t -> unit
  val bits_read : t -> int

  val bits_left : t -> int
  (** Bits not yet read: the most a decoder may still pull. *)
end
