#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload ctrl-tcp --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --workload all --seed 1
#
# Everything the build writes (binary, Go build cache, temp files,
# toolchain telemetry) stays under .bench_build in the current directory.
set -euo pipefail

root=$PWD
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
# The go command keeps its telemetry counters under the config directory.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi

# --workload all runs every workload in its own process, one after another.
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	if [ "${args[$i]}" = "--workload" ] && [ "${args[$((i + 1))]:-}" = "all" ]; then
		status=0
		for w in ctrl-tcp lr-migrate shuffle-ingest job-churn; do
			args[$((i + 1))]=$w
			"$out/perfbench" --commit "$commit" "${args[@]}" || status=1
		done
		exit $status
	fi
done
exec "$out/perfbench" --commit "$commit" "$@"
