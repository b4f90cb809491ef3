(** The one stable hash of the fleet.

    Ring placement must agree across runs, processes and OCaml
    versions — [Hashtbl.hash] guarantees none of that.  The fleet folds
    the first eight bytes of the SHA-256 digest, the repo's one content
    hash, into a uniform non-negative 62-bit integer. *)

val stable_hash : string -> int
(** Deterministic, uniform, non-negative. *)
