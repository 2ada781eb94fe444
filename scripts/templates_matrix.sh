#!/usr/bin/env bash
# Scenario-template matrix gate: generate the N × guard-policy family of
# GSU scenario specs (N ∈ {3, 5, 8} crossed with every guard policy),
# build each instance through internal/template — every generated state
# space is model-checked before any solve — run a short sweep over it,
# and collect the per-instance generated-state statistics into a single
# artifact file for CI. The statistics must match the committed
# scripts/templates-stats.golden line for line; any difference fails the
# gate. See docs/TEMPLATES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${TEMPLATES_STATS:-templates-stats.txt}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# gen_spec N POLICY > spec.json — a scaled-rate heterogeneous scenario:
# the rates keep q·t inside the uniformization budget at every N so the
# matrix stays a fast smoke gate; the first node(s) carry the upgrade
# (two simultaneous upgrades at N = 8), and the last node deviates from
# the defaults so heterogeneity is exercised everywhere.
gen_spec() {
	local n=$1 policy=$2 retries="" upgrades=1 i comma
	[ "$policy" = "abort-retry" ] && retries=',"retries":2'
	[ "$n" -ge 8 ] && upgrades=2
	printf '{\n'
	printf '  "name": "n%s-%s",\n' "$n" "$policy"
	printf '  "theta": 100,\n  "coverage": 0.95,\n  "alpha": 360,\n  "beta": 720,\n'
	printf '  "defaults": {"lambda": 6, "p_ext": 0.3, "mu_old": 0.0002},\n'
	printf '  "guard": {"policy": "%s"%s},\n' "$policy" "$retries"
	printf '  "limits": {"max_states": 32768},\n'
	printf '  "nodes": [\n'
	for ((i = 1; i <= n; i++)); do
		comma=","
		[ "$i" -eq "$n" ] && comma=""
		if [ "$i" -le "$upgrades" ]; then
			printf '    {"name": "node%02d", "upgrade": {"mu_new": 0.002}}%s\n' "$i" "$comma"
		elif [ "$i" -eq "$n" ]; then
			printf '    {"name": "node%02d", "lambda": 9, "p_ext": 0.5}%s\n' "$i" "$comma"
		else
			printf '    {"name": "node%02d"}%s\n' "$i" "$comma"
		fi
	done
	printf '  ]\n}\n'
}

: >"$out"
for n in 3 5 8; do
	for policy in global per-node staged abort-retry; do
		name="n${n}-${policy}"
		file="$tmp/$name.json"
		gen_spec "$n" "$policy" >"$file"
		echo "== $name"
		go run ./cmd/gsueval -scenario "$file" -points 4 | tee "$tmp/$name.out"
		# The scenario summary line carries the state-space statistics
		# (node count, policy, generated states, Gp solve mode).
		grep '^scenario ' "$tmp/$name.out" >>"$out"
	done
done

echo
echo "state-space statistics ($out):"
cat "$out"

# Pin the generator's N × policy state counts.
if ! diff -u scripts/templates-stats.golden "$out"; then
	echo "templates: state-space statistics differ from scripts/templates-stats.golden" >&2
	exit 1
fi
