(** The artifact cache every {!Session} of one {!Server} shares: a
    single LRU ring from artifact key to loaded value.  It takes no
    lock — the server's one loop is its only caller.  Hits, misses and
    evictions are counted in the unstable [serve.cache_hits],
    [serve.cache_misses] and [serve.cache_evictions] metrics. *)

type 'v t

val create : slots:int -> 'v t
(** An empty cache holding at most [max 1 slots] entries. *)

val fetch :
  'v t ->
  string ->
  (unit -> ('v, 'e) result) ->
  [ `Hit of 'v | `Loaded of 'v | `Err of 'e ]
(** Promote [key] on a hit; on a miss run the loader and insert its
    value, evicting the least recently used entry when full.  A loader
    error is not cached. *)

val keys : 'v t -> string list
(** The resident keys, most recently used first. *)
