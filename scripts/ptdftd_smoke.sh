#!/bin/sh
# ptdftd smoke: drive the daemon binary through a drain and a restart.
# Start ptdftd on a fresh -dir, submit a long job, SIGTERM it once the job
# has streamed two steps, and require the job record on disk to read
# "queued" (a drained job is a queued job). Then restart on the same -dir
# and require the adopted job to finish with one preemption and one
# resume. The binary is built first and signaled directly: `go run` does
# not relay SIGTERM to the program it runs. CI runs this; run it locally
# from the module root with:
# sh scripts/ptdftd_smoke.sh [workdir]
set -eu
work=${1:-$(mktemp -d)}
dir=$work/d
addr=127.0.0.1:18321
url=http://$addr
mkdir -p "$work"
go build -o "$work/ptdftd" ./cmd/ptdftd

pid=
stop() {
	kill -TERM "$pid"
	wait "$pid" || { echo "ptdftd-smoke: daemon exited non-zero" >&2; exit 1; }
}
trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null || true' EXIT

# poll PATTERN: GET the job until its JSON matches the extended regex
# PATTERN, for at most 60 s.
poll() {
	i=0
	until curl -sf "$url/jobs/j000001" 2>/dev/null | grep -Eq "$1"; do
		i=$((i + 1))
		if [ "$i" -gt 600 ]; then
			echo "ptdftd-smoke: job never matched $1" >&2
			curl -s "$url/jobs/j000001" >&2 || true
			exit 1
		fi
		sleep 0.1
	done
}

# start: launch the daemon on the directory and wait for it to listen.
start() {
	"$work/ptdftd" -addr "$addr" -dir "$dir" -ckptevery 2 >>"$work/ptdftd.log" 2>&1 &
	pid=$!
	i=0
	until curl -sf "$url/metrics" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -gt 300 ]; then
			echo "ptdftd-smoke: daemon never listened" >&2
			cat "$work/ptdftd.log" >&2
			exit 1
		fi
		sleep 0.1
	done
}

start
curl -sf -X POST "$url/jobs" -d '{"cells":[1,1,1],"ecut":2,"steps":200,"kick":0.02}' >/dev/null
poll '"steps_done": ?([2-9]|[1-9][0-9]+)[,}]'
stop
grep -q '"state": "queued"' "$dir/j000001.json" || {
	echo "ptdftd-smoke: drained job record is not queued:" >&2
	cat "$dir/j000001.json" >&2
	exit 1
}

start
poll '"state": ?"done"'
job=$(curl -sf "$url/jobs/j000001")
stop
pid=
for want in '"preemptions": ?1[,}]' '"resumes": ?1[,}]'; do
	echo "$job" | grep -Eq "$want" || {
		echo "ptdftd-smoke: done job does not match $want: $job" >&2
		exit 1
	}
done
echo "ptdftd-smoke: drained to queued, restarted, done with 1 preemption and 1 resume"
