#!/bin/sh
# One content hash, one frame check.  SHA-256 (lib/sha256) names all
# content; CRC-32 (lib/serve/crc32.ml) only guards wire frames.  Fails
# when an OCaml source under lib/ bin/ bench/ examples/ calls Stdlib's
# MD5 (`Digest.`), or when one outside lib/serve references Crc32.
# Run from the workspace root.
set -u
for f in lib/sha256/sha256.ml lib/serve/crc32.ml; do
  [ -f "$f" ] || { echo "hash guard: $f missing (nothing to guard)" >&2; exit 1; }
done
srcs=$(find lib bin bench examples -name '*.ml' -o -name '*.mli')
status=0
md5=$(grep -lE '(^|[^A-Za-z0-9_])Digest\.' $srcs)
if [ -n "$md5" ]; then
  echo "hash guard: Stdlib.Digest (MD5) used in:" $md5 >&2
  status=1
fi
crc=$(echo "$srcs" | grep -v '^lib/serve/' | xargs grep -lE '(^|[^A-Za-z0-9_])Crc32([^A-Za-z0-9_]|$)')
if [ -n "$crc" ]; then
  echo "hash guard: Crc32 referenced outside lib/serve in:" $crc >&2
  status=1
fi
exit $status
