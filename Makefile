.PHONY: all build test verify lint sanitize equiv examples bench bench-smoke perf-smoke sweep-parity perf-canary clean

all: build

build:
	dune build

test:
	dune runtest

# The sweeps below gate on their reports: each writes its report to a
# scratch file, which must equal the committed one (as bench-smoke
# diffs FIGURES.txt). A change that moves a diagnostic on purpose
# regenerates the committed report in the same commit, with the
# sweep's command and --out set to the committed file.

# static-verifier sweep: every workload kernel at every compiler stage,
# plus the seeded known-bad corpus; then every workload again at r20,
# once with a 512 B shared spare (which fits no sub-stack at r20, so every
# spill goes to local memory) and once with 8 KB, where Algorithm 1 moves
# spills into the per-thread shared sub-stack; fails on any error-severity
# diagnostic, or on a report that differs from verify-report.txt,
# verify-r20-report.txt or verify-shared-report.txt
verify:
	dune exec bin/crat_cli.exe -- verify --all --corpus --out verify-report.out
	diff verify-report.txt verify-report.out
	dune exec bin/crat_cli.exe -- verify --all --regs 20 --shared-spare 512 --out verify-r20-report.out
	diff verify-r20-report.txt verify-r20-report.out
	dune exec bin/crat_cli.exe -- verify --all --regs 20 --shared-spare 8192 --out verify-shared-report.out
	diff verify-shared-report.txt verify-shared-report.out
	rm -f verify-report.out verify-r20-report.out verify-shared-report.out

# static performance advisor over every workload, with each "may"/"must"
# claim cross-checked against the per-pc counters of the recorded launch;
# the P-code report must equal lint-report.txt
lint:
	dune exec bin/crat_cli.exe -- lint --all --validate --out lint-report.out
	diff lint-report.txt lint-report.out
	rm -f lint-report.out

# hybrid memory-safety sweep: every workload at pre-opt/post-opt/post-alloc,
# then a sanitized replay of each default launch (static proofs discharge the
# dynamic checks; only the residue pays a bounds test); the S-code +
# discharge-table report must equal sanitize-report.txt
sanitize:
	dune exec bin/crat_cli.exe -- sanitize --all --validate --out sanitize-report.out
	diff sanitize-report.txt sanitize-report.out
	rm -f sanitize-report.out

# translation-validation sweep: symbolically prove every workload's three
# transformation edges (optimization, allocation, machine lowering), plus
# the seeded miscompile corpus, each refutation replayed on the reference
# interpreter; the E-code report must equal equiv-report.txt
equiv:
	dune exec bin/crat_cli.exe -- equiv --all --corpus --out equiv-report.out
	diff equiv-report.txt equiv-report.out
	rm -f equiv-report.out

# run each example program on its default app; a non-zero exit, or stdout
# that differs from EXAMPLES.txt, fails the target (the examples call the
# allocator, the emulator and the engine directly, so this keeps both
# their API use and their printed answers pinned as the library moves)
EXAMPLES = quickstart design_space_explorer spill_tuning custom_kernel multi_sm

examples:
	dune build $(foreach e,$(EXAMPLES),examples/$(e).exe)
	set -e; for e in $(EXAMPLES); do \
	  echo "== examples/$$e" >&2; ./_build/default/examples/$$e.exe; \
	done > examples.txt
	diff EXAMPLES.txt examples.txt
	rm -f examples.txt

bench:
	dune exec bench/main.exe

# the figure gate: every experiment, with the verify gate armed, must
# print FIGURES.txt on stdout (host time and the overhead table go to
# stderr); then the fig13 determinism diff: a serial cold run must print
# exactly the fig13 block of that 2-job replayed run; then fig13 under
# the machine register-file backend against FIGURES-machine.txt; last,
# every line quoted in a figures fence of EXPERIMENTS.md must be a line
# of FIGURES.txt
BENCH = dune exec bench/main.exe --

bench-smoke:
	CRAT_VERIFY=1 $(BENCH) --jobs 2 > figures.txt
	diff FIGURES.txt figures.txt
	awk '/^====/ { f = /^==== fig13:/ } f' figures.txt > fig13-replayed.txt
	$(BENCH) --only fig13 --jobs 1 --no-replay > fig13-cold.txt
	diff fig13-replayed.txt fig13-cold.txt
	$(BENCH) --only fig13 --fast --backend machine > fig13-machine.txt
	diff FIGURES-machine.txt fig13-machine.txt
	rm -f figures.txt fig13-replayed.txt fig13-cold.txt fig13-machine.txt
	awk '/^```figures$$/ { q = 1; next } /^```$$/ { q = 0 } q' EXPERIMENTS.md \
	  | grep -vxF -f FIGURES.txt; test $$? = 1

# CI gate for the sweep, the compile path and the daemon's simulate path: the
# fig13-family sweep slice, its pass checked against the committed
# fingerprint (so every simulator change is gated on every push); CRAT-static
# plans for all 22 apps, each checked against its committed digest (resource
# analysis, candidate allocations, chosen allocated kernel text), at seeds
# 42, 7 and 339: the seed draws each app's shared spilling on or off, and
# these three seeds draw both for every app, so all 44 committed (app,
# spilling) digests are checked; then two clients streaming the whole
# universe into a cold daemon, each client's answers checked against the
# committed fingerprint and each launch recorded once; then a daemon restarted on a recorded store, which must answer every
# point with no simulation and no trace record, with the committed fingerprint
perf-smoke:
	dune exec ./perfbench/perf.exe -- --workload sweep --seconds 2 --trace 0
	dune exec ./perfbench/perf.exe -- --workload compile --seconds 2 --trace 0
	dune exec ./perfbench/perf.exe -- --workload compile --seconds 1 --trace 0 --seed 7
	dune exec ./perfbench/perf.exe -- --workload compile --seconds 1 --trace 0 --seed 339
	dune exec ./perfbench/perf.exe -- --workload serve-cold --seconds 2 --trace 0
	dune exec ./perfbench/perf.exe -- --workload serve-warm --seconds 2 --trace 0

# CI gate on the daemon's sweep path: a memory-only daemon on a private
# socket must print for `client --sweep lint` exactly what `lint --all`
# prints, with the same exit status; the daemon is shut down (or killed,
# if a step fails) before the diff
CRAT = ./_build/default/bin/crat_cli.exe
PARITY_SOCKET = sweep-parity.sock

sweep-parity:
	dune build bin/crat_cli.exe
	rm -f $(PARITY_SOCKET)
	$(CRAT) serve --no-store --socket $(PARITY_SOCKET) > sweep-parity-daemon.log 2>&1 & \
	  pid=$$!; trap 'kill $$pid 2>/dev/null' EXIT; \
	  n=0; until $(CRAT) client --socket $(PARITY_SOCKET) --stats > /dev/null 2>&1; do \
	    n=$$((n + 1)); [ $$n -lt 100 ] || { cat sweep-parity-daemon.log; exit 1; }; sleep 0.1; \
	  done; \
	  $(CRAT) client --socket $(PARITY_SOCKET) --sweep lint > sweep-parity-client.txt; c=$$?; \
	  $(CRAT) lint --all > sweep-parity-cli.txt; l=$$?; \
	  $(CRAT) client --socket $(PARITY_SOCKET) --shutdown && wait $$pid && \
	  [ $$c = $$l ] && diff sweep-parity-cli.txt sweep-parity-client.txt
	rm -f sweep-parity-cli.txt sweep-parity-client.txt sweep-parity-daemon.log

# CI gate on the suite fingerprints of earlier reports (~90 s on 2 cores):
# re-derives BENCH_PR5's fig13-family digest and engine counts, the
# CRAT/OptTLP geomean of BENCH_PR6 and BENCH_PR10's daemon digest; exits
# 1 on any mismatch
perf-canary:
	dune exec ./perfbench/perf.exe -- --canary

clean:
	dune clean
