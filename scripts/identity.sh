#!/usr/bin/env bash
# Byte identity of the served artifacts against another commit:
#
#   bash scripts/identity.sh REV   # = make identity REV=<rev>
#
# A is the commit REV; B is this checkout's working tree as it stands
# (tracked and untracked files, not ignored ones). Both are copied into a
# temporary directory under $TMPDIR, as scripts/ab.sh copies them, and
# each side builds hydra-gen, hydra-link, hydra-pack and hydra-serve from
# its own source. Each side then makes the same artifacts:
#
#   world.json              hydra-gen -persons 40 -seed 3
#   bundle.bin              hydra-link -save-bundle over that world
#   split.shard{0,1}.bin    hydra-pack -shards 2 of that bundle
#   *.repl.txt              hydra-serve's answers to one fixed REPL script
#                           (pairs, topk … 5, topk … 0 and score over 12
#                           A-side accounts) off the bundle and each shard
#
# and the script prints one line per artifact, equal or differs. A change
# meant to keep every byte (a refactor, a deletion) shows it here. Exits
# 1 when an artifact differs, 3 when a side fails to build or run (the
# tail of its log goes to stderr); the temporary directory is deleted on
# exit. Needs bash, git, tar, cmp and go.
set -euo pipefail

rev=${1:?usage: identity.sh REV}
root=$(git rev-parse --show-toplevel)
cd "$root"
sha=$(git rev-parse --verify "$rev^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/hydra-identity.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/A" "$tmp/B"
git archive "$sha" | tar -x -C "$tmp/A"
git ls-files -z --cached --others --exclude-standard |
	while IFS= read -r -d '' f; do [[ -e $f ]] && printf '%s\0' "$f"; done |
	tar --null -T - -cf - | tar -x -C "$tmp/B"
echo "identity: A = $sha, B = working tree of $root ($(git rev-parse --short HEAD) plus edits)" >&2

{
	echo pairs
	for a in {0..11}; do
		echo "topk twitter $a facebook 5"
		echo "topk twitter $a facebook 0"
		echo "score twitter $a facebook $((a * 7 % 12))"
	done
} >"$tmp/script.txt"

# artifacts SIDE: build SIDE's binaries and make its artifacts in out/SIDE.
artifacts() {
	local out=$tmp/out/$1
	mkdir -p "$out"
	cd "$tmp/$1"
	go build -o "$out/bin/" ./cmd/hydra-gen ./cmd/hydra-link ./cmd/hydra-pack ./cmd/hydra-serve
	"$out/bin/hydra-gen" -persons 40 -seed 3 -o "$out/world.json"
	"$out/bin/hydra-link" -in "$out/world.json" -save-bundle "$out/bundle.bin" >/dev/null
	"$out/bin/hydra-pack" -bundle "$out/bundle.bin" -shards 2 -o "$out/split.bin" >/dev/null
	for b in bundle split.shard0 split.shard1; do
		"$out/bin/hydra-serve" -bundle "$out/$b.bin" <"$tmp/script.txt" >"$out/$b.repl.txt"
	done
}

for side in A B; do
	echo "identity: building and running $side" >&2
	if ! (artifacts "$side") 2>"$tmp/$side.log"; then
		echo "identity: side $side failed; the end of its log:" >&2
		tail -n 20 "$tmp/$side.log" | sed 's/^/  /' >&2
		exit 3
	fi
done

status=0
for f in world.json bundle.bin split.shard0.bin split.shard1.bin bundle.repl.txt split.shard0.repl.txt split.shard1.repl.txt; do
	if cmp -s "$tmp/out/A/$f" "$tmp/out/B/$f"; then
		printf '%-22s equal\n' "$f"
	else
		printf '%-22s differs\n' "$f"
		status=1
	fi
done
exit $status
