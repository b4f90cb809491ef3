(** Binary table images.

    The compiler "attaches BSVs, BCVs and BATs to the program binary" and
    conveys per-function metadata through a function information table
    (paper §5.4, Figure 6).  This module serializes one function's
    tables into that image and loads it back: a byte-aligned metadata
    header (name, entry PC, hash parameters, node count) followed by the
    bit-packed BCV and BAT.  A whole program ships as a [.ipds] artifact
    holding one such image per function ([Ipds_artifact.Artifact]).  The packed payload is exactly
    {!Tables.sizes} minus the BSV (which is runtime state, initialized to
    all-unknown at activation).

    A checker built from a decoded image behaves identically to one built
    from the in-memory tables — tested property. *)

val function_image : entry_pc:int -> Tables.t -> Bytes.t
val decode_function : Bytes.t -> (int * Tables.t)
(** Inverse of {!function_image} (the debug-only [slot_of_iid] field is
    not serialized and comes back empty).  Raises [Invalid_argument] on a
    malformed image. *)

val decode_function_full : Bytes.t -> (int * Tables.t * Image.t)
(** Like {!decode_function}, but also returns the flat checker image
    the section decodes into (the tables are derived from it).  The
    image is structurally identical to [Image.of_tables] of the decoded
    tables. *)

val payload_bits : Tables.t -> int
(** Packed BCV+BAT bits — must equal
    [sizes.bcv_bits + sizes.bat_bits] (tested). *)
