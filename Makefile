.PHONY: all build test verify lint sanitize equiv bench bench-smoke bench-perf bench-backend bench-serve serve-smoke perf-smoke perf-canary clean

all: build

build:
	dune build

test:
	dune runtest

# static-verifier sweep: every workload kernel at every compiler stage,
# plus the seeded known-bad corpus; fails on any error-severity diagnostic
verify:
	dune exec bin/crat_cli.exe -- verify --all --corpus

# static performance advisor over every workload, with each "may"/"must"
# claim cross-checked against the reference interpreter's dynamic counters;
# the P-code report lands in lint-report.txt
lint:
	dune exec bin/crat_cli.exe -- lint --all --validate --out lint-report.txt

# hybrid memory-safety sweep: every workload at pre-opt/post-opt/post-alloc,
# then a sanitized replay of each default launch (static proofs discharge the
# dynamic checks; only the residue pays a bounds test); the S-code +
# discharge-table report lands in sanitize-report.txt
sanitize:
	dune exec bin/crat_cli.exe -- sanitize --all --validate --out sanitize-report.txt

# translation-validation sweep: symbolically prove every workload's three
# transformation edges (optimization, allocation, machine lowering), plus
# the seeded miscompile corpus, each refutation replayed on the reference
# interpreter; the E-code report lands in equiv-report.txt
equiv:
	dune exec bin/crat_cli.exe -- equiv --all --corpus --out equiv-report.txt

bench:
	dune exec bench/main.exe

# cheap smoke check of the parallel evaluation path
bench-smoke:
	dune exec bench/main.exe -- --only fig1 --jobs 2 --fast

# reduced full sweep with a machine-readable report, for tracking
# simulator performance over time (see BENCH_PR2.json for a reference),
# then the fig13-family replay-on/replay-off grid (see BENCH_PR5.json):
# wall-clock at jobs 1 and 4 with bit-identical Stats fingerprints
bench-perf:
	dune exec bench/main.exe -- --fast --json bench-perf.json
	dune exec bench/replaybench.exe -- BENCH_PR5.json

# fig13 per register-file backend + scalarization statistics
bench-backend:
	dune exec bench/backendbench.exe -- BENCH_PR6.json

# daemon + persistent store under N forked clients, full suite, cold vs
# warm store (see BENCH_PR10.json)
bench-serve:
	dune exec bench/servebench.exe -- BENCH_PR10.json

# CI gate for the daemon: 4 concurrent clients over a workload subset,
# cold store then warm restart; fails unless the warm run answers >= 90%
# of points without functional execution and every Stats fingerprint is
# bit-identical across clients and store temperatures
serve-smoke:
	dune exec bench/servebench.exe -- --smoke BENCH_PR10.json

# CI gate for the compile path and the daemon's simulate path: CRAT-static
# plans for all 22 apps, each checked against its committed digest (resource
# analysis, candidate allocations, chosen allocated kernel text); then two
# clients streaming the whole universe into a cold daemon, each client's
# answers checked against the committed fingerprint and each launch recorded
# once
perf-smoke:
	dune exec ./perfbench/perf.exe -- --workload compile --seconds 2 --trace 0
	dune exec ./perfbench/perf.exe -- --workload serve-cold --seconds 2 --trace 0

# CI gate on the suite fingerprints of earlier reports (~90 s on 2 cores):
# re-derives BENCH_PR5's fig13-family digest and engine counts, the
# CRAT/OptTLP geomean of BENCH_PR6 and BENCH_PR10's daemon digest; exits
# 1 on any mismatch
perf-canary:
	dune exec ./perfbench/perf.exe -- --canary

clean:
	dune clean
