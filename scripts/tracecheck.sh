#!/bin/sh
# tracecheck: validate a Chrome trace-event JSON file emitted by the
# flight recorder (ptdft -tracefile, spectra -tracefile, summitsim
# -tracefile). The file must parse, every event must be a thread_name
# metadata record or a complete (ph=X) span, and on every rank timeline
# the union of spans must cover >= 95% of the first-to-last extent - the
# observability acceptance bar: a hot phase the instrumentation misses
# shows up here as a coverage hole, not in a viewer three weeks later.
# CI runs it against fresh 2-rank and serial hybrid ACE+MTS traces on
# every PR.
# Run locally from the module root with: sh scripts/tracecheck.sh <trace.json>
set -u

if [ $# -ne 1 ]; then
	echo "usage: sh scripts/tracecheck.sh <trace.json>" >&2
	exit 2
fi

exec go run scripts/tracecheck.go "$1"
