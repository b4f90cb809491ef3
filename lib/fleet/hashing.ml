(* One stable hash for ring point placement, which needs a hash that is
   identical across processes and OCaml versions; that rules out
   [Hashtbl.hash].  SHA-256 is the repo's one content hash, so we reuse
   it: the first eight digest bytes, folded little-endian and masked
   positive, give a uniform 62-bit point. *)

let stable_hash s =
  let d = Sha256.string s in
  let b i = Char.code d.[i] in
  let v =
    b 0
    lor (b 1 lsl 8)
    lor (b 2 lsl 16)
    lor (b 3 lsl 24)
    lor (b 4 lsl 32)
    lor (b 5 lsl 40)
    lor (b 6 lsl 48)
    lor (b 7 lsl 56)
  in
  v land max_int
