(** The one stable hash of the fleet.

    Ring placement must agree across runs, processes and OCaml
    versions — [Hashtbl.hash] guarantees none of that.  MD5 is already
    a hard dependency of the artifact store, so the fleet folds the
    first eight digest bytes into a uniform non-negative 62-bit
    integer. *)

val stable_hash : string -> int
(** Deterministic, uniform, non-negative. *)
