#!/usr/bin/env bash
# Paired A/B of the repository's benchmark (bench/run.sh):
#
#   bash scripts/ab.sh REV [WORKLOAD] [PAIRS]   # = make ab REV=<rev> [W=<workload>] [PAIRS=6]
#
# A is the commit REV; B is this checkout's working tree as it stands
# (tracked and untracked files, not ignored ones), so an uncommitted
# change can be measured before it is committed. Both are copied into a
# temporary directory under $TMPDIR before anything runs, so edits made
# during the runs do not leak into them; REV is exported with
# `git archive`, which leaves nothing behind in .git. Each copy builds the
# benchmark from its own source, and one untimed warm-up run per copy
# compiles it and trains the bundle its serving workloads share.
#
# Pair i (1..PAIRS) runs `bash bench/run.sh --seed i --seconds 10` in
# both copies, A then B for odd i and B then A for even i (A B B A A B …),
# so a drift in the host's speed falls on both sides. With WORKLOAD the
# runs add `--workload WORKLOAD`; without it each run is a full set, all
# five workloads. The temporary directory is deleted on exit; a run that
# fails has the tail of its log printed first.
#
# For each (workload, end-to-end metric) of BENCHMARK.json it prints the
# median over the pairs of B/A, how many pairs favoured B (by the
# metric's direction; ties are counted apart), how much worse B's median
# ratio is than 1, A's spread (the interquartile range of A's runs over
# their median; – under 4 pairs), the metric's bound, and a verdict:
# BREACH when the median is worse than the bound; otherwise unresolved
# when A's spread exceeds the bound, unless every B run reads better than
# every A run, because then the runs cannot tell a change within the bound
# from noise; otherwise ok. A workload where B fails a larger share of its
# operations than A is a BREACH too, and one that either side printed no
# result for is MISSING. Exits 1 on a breach, 3 on a missing result, 2 on
# a usage error; unresolved does not change the exit status.
# Needs bash, git, tar, jq and go.
set -euo pipefail

rev=${1:?usage: ab.sh REV [WORKLOAD] [PAIRS]}
workload=${2:-}
pairs=${3:-6}
[[ $pairs =~ ^[1-9][0-9]*$ ]] || { echo "ab: PAIRS must be a positive integer, got '$pairs'" >&2; exit 2; }

root=$(git rev-parse --show-toplevel)
cd "$root"
sha=$(git rev-parse --verify "$rev^{commit}")
if [[ -n $workload ]] && ! jq -e --arg w "$workload" 'any(.workloads[]; .name == $w)' BENCHMARK.json >/dev/null; then
	echo "ab: no workload '$workload' in BENCHMARK.json" >&2
	exit 2
fi
tmp=$(mktemp -d "${TMPDIR:-/tmp}/hydra-ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/A" "$tmp/B"
git archive "$sha" | tar -x -C "$tmp/A"
git ls-files -z --cached --others --exclude-standard |
	while IFS= read -r -d '' f; do [[ -e $f ]] && printf '%s\0' "$f"; done |
	tar --null -T - -cf - | tar -x -C "$tmp/B"
echo "ab: A = $sha, B = working tree of $root ($(git rev-parse --short HEAD) plus edits); $pairs pairs of ${workload:-full sets}" >&2

wflag=()
[[ -n $workload ]] && wflag=(--workload "$workload")

# failed SIDE WHAT STATUS: report a run that exited non-zero, with the
# tail of its stderr (run.log, rewritten by every run).
failed() {
	echo "ab: $2, $1 exited $3; the end of its stderr:" >&2
	tail -n 20 "$tmp/run.log" | sed 's/^/  /' >&2
}

# run SIDE PAIR: one benchmark run in copy SIDE, its JSON lines appended
# to results.jsonl as {"side", "pair", "workload", "out"}.
run() {
	local side=$1 pair=$2 out status=0
	echo "ab: pair $pair, $side" >&2
	out=$(cd "$tmp/$side" && bash bench/run.sh "${wflag[@]}" --seed "$pair" --seconds 10 2>"$tmp/run.log") || status=$?
	if [[ -n $workload ]]; then
		out="$workload $(tail -n 1 <<<"$out")"
	fi
	{ grep -E '^[a-z0-9-]+ \{' <<<"$out" || true; } |
		while read -r name line; do
			jq -c --arg side "$side" --argjson pair "$pair" --arg w "$name" \
				'{side: $side, pair: $pair, workload: $w, out: .}' <<<"$line" || true
		done >>"$tmp/results.jsonl"
	if ((status != 0)); then
		failed "$side" "pair $pair" "$status"
	fi
}

for side in A B; do
	echo "ab: warm-up, $side" >&2
	(cd "$tmp/$side" && bash bench/run.sh --workload topk-wide --seed 1 --seconds 1 >/dev/null 2>"$tmp/run.log") ||
		failed "$side" "warm-up" "$?"
done
: >"$tmp/results.jsonl"
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2 == 1)); then
		run A "$i"
		run B "$i"
	else
		run B "$i"
		run A "$i"
	fi
done

report=$(jq -rs --slurpfile spec BENCHMARK.json --arg only "$workload" '
	def quantile($q): sort | length as $n | ($q * ($n - 1)) as $h | ($h | floor) as $lo
		| if $n == 0 then null else .[$lo] + ($h - $lo) * (.[[$lo + 1, $n - 1] | min] - .[$lo]) end;
	def median: quantile(0.5);
	. as $runs
	| $spec[0].workloads[].name | select($only == "" or . == $only) | . as $w
	| [$runs[] | select(.workload == $w)] as $r
	| ([$r[].pair] | unique) as $pairs
	| def side($s; $p): first($r[] | select(.side == $s and .pair == $p) | .out) // null;
	(
		$spec[0].end_to_end[] as $m
		| [$pairs[] as $p
			| (side("A"; $p) | .metrics[$m.name].value?) as $a
			| (side("B"; $p) | .metrics[$m.name].value?) as $b
			| select($a != null and $b != null)
			| {a: $a, b: $b, ratio: (if $a == $b then 1 elif $a == 0 then infinite else $b / $a end),
			   better: (if $m.better == "lower" then $b < $a else $b > $a end),
			   tie: ($a == $b)}] as $pr
		| select($pr | length > 0)
		| ($pr | map(.ratio) | median) as $med
		| (if $m.better == "lower" then $med - 1 else 1 - $med end) as $worse
		| ($pr | map(.a)) as $av
		| ($av | median) as $amed
		| (($av | quantile(0.75)) - ($av | quantile(0.25))) as $iqr
		| (if $pr | length < 4 then null elif $amed == 0 then (if $iqr == 0 then 0 else infinite end)
		   else $iqr / ($amed | fabs) end) as $spread
		| (if $m.better == "lower" then ($pr | map(.b) | max) < ($av | min)
		   else ($pr | map(.b) | min) > ($av | max) end) as $clear
		| [$w, $m.name, ($med * 10000 | round / 10000),
		   "\($pr | map(select(.better)) | length)/\($pr | length)",
		   ($pr | map(select(.tie)) | length),
		   "\($worse * 1000 | round / 10)%",
		   (if $spread == null then "–" else "\($spread * 1000 | round / 10)%" end),
		   "\($m.bound * 100)%",
		   (if $worse > $m.bound then "BREACH"
		    elif $spread != null and $spread > $m.bound and ($clear | not) then "unresolved"
		    else "ok" end)]
	),
	(
		def share($s): [$r[] | select(.side == $s) | .out]
			| {runs: length, f: (map(.failed // 0) | add // 0), n: (map(.attempted // 0) | add // 0)};
		share("A") as $a | share("B") as $b
		| [$w, "failed", "A \($a.f)/\($a.n)", "B \($b.f)/\($b.n)", "",
		   "", "", "",
		   (if $a.runs == 0 or $b.runs == 0 then "MISSING"
		    elif $b.n == 0 or ($a.n > 0 and $b.f * $a.n > $a.f * $b.n) or ($a.n == 0 and $b.f > 0) then "BREACH"
		    else "ok" end)]
	)
	| @tsv' "$tmp/results.jsonl")

{
	printf 'workload\tmetric\tmedian B/A\tB better\tties\tB worse by\tA spread\tbound\tverdict\n'
	printf '%s\n' "$report"
} | awk -F'\t' '{ printf "%-13s %-15s %12s %9s %5s %11s %9s %6s  %s\n", $1, $2, $3, $4, $5, $6, $7, $8, $9 }'

if grep -q 'MISSING' <<<"$report"; then
	echo "ab: at least one workload has no result on one side" >&2
	exit 3
fi
if grep -q 'BREACH' <<<"$report"; then
	echo "ab: at least one (workload, metric) breaches its bound" >&2
	exit 1
fi
