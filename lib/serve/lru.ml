(* The serve session's artifact cache: one LRU ring of loaded systems,
   most recently used first.  The server's one loop is its only user,
   so it takes no lock; the ring holds a handful of entries, so a list
   is the whole data structure. *)

module Reg = Ipds_obs.Registry

(* Occupancy depends on how sessions interleave, so the counters are
   unstable. *)
let m_hits = Reg.counter ~stable:false "serve.cache_hits"
let m_misses = Reg.counter ~stable:false "serve.cache_misses"
let m_evictions = Reg.counter ~stable:false "serve.cache_evictions"

type 'v t = { slots : int; mutable ring : (string * 'v) list }

let create ~slots = { slots = max 1 slots; ring = [] }

let fetch t key load =
  match List.assoc_opt key t.ring with
  | Some v ->
      t.ring <- (key, v) :: List.remove_assoc key t.ring;
      Reg.incr m_hits;
      `Hit v
  | None -> (
      Reg.incr m_misses;
      match load () with
      | Error e -> `Err e
      | Ok v ->
          let ring = (key, v) :: t.ring in
          if List.length ring > t.slots then begin
            Reg.incr m_evictions;
            t.ring <- List.filteri (fun i _ -> i < t.slots) ring
          end
          else t.ring <- ring;
          `Loaded v)

let keys t = List.map fst t.ring
