.PHONY: all check test release par-test serve-smoke incr-smoke lint clean

all:
	dune build

# The full gate: build, then the unit/property tests, which include
# the seconds-scale benchmark smoke run (the @bench-smoke alias:
# Table 1, Figure 7 and three ablations).
check:
	dune build
	dune runtest

test:
	dune runtest

# jeddlint over the shipped sources: the clean example and the five
# Figure 2 analyses must produce no warnings or errors (exit 0); the
# seeded-defect examples must trip the checkers (exit non-zero).  Then
# the CLI pipeline once more on every backend, with every executed IR
# instruction shadow-checked against the refcount discipline
# (JEDD_CHECK_IR) and the results verified tuple for tuple; a plain
# mtbdd run; and the up-front usage error (exit 2) for a snapshot
# request on mtbdd, by flag and by environment.
lint:
	dune build bin/jeddc_main.exe bin/analyze_main.exe
	dune exec bin/jeddc_main.exe -- --lint=text examples/lint_clean.jedd
	dune exec bin/analyze_main.exe -- -b tiny --lint
	dune exec bin/analyze_main.exe -- -f examples/shapes.mjava --lint
	! dune exec bin/jeddc_main.exe -- --lint=text examples/lint_defects.jedd
	! dune exec bin/jeddc_main.exe -- --lint=text examples/cost_defects.jedd
	for b in incore extmem hybrid mtbdd; do \
	  JEDD_CHECK_IR=1 dune exec bin/analyze_main.exe -- -b tiny --verify \
	    --backend=$$b || exit 1; \
	done
	dune exec bin/analyze_main.exe -- -b tiny --backend=mtbdd
	dune exec bin/analyze_main.exe -- -b tiny --backend=mtbdd \
	  --save-snapshot _build/mtbdd-lint.snap; test $$? -eq 2
	JEDD_BACKEND=mtbdd dune exec bin/analyze_main.exe -- -b tiny \
	  --save-snapshot _build/mtbdd-lint.snap; test $$? -eq 2

# Optimised binaries (-O3 -unsafe -noassert); see the root `dune` file.
release:
	dune build --profile release

# The one multi-core mode: frozen managers read by several domains.  The
# parallel suite (reader domains against pinned handles, scratch under
# chunk refills and table growth, invariants across sweeps) plus the
# serve suite, which runs multi-worker frozen serving end to end,
# including 50 TCP clients against two frozen workers.  Used by CI.
par-test:
	dune build test/test_main.exe
	dune exec test/test_main.exe -- test parallel
	dune exec test/test_main.exe -- test serve

# End-to-end daemon round trip: jeddd cold start, jeddq queries over
# the socket, snapshot save, warm restart, answers compared.
serve-smoke:
	sh scripts/serve_smoke.sh

# Incremental evaluation, CI-sized: the quick halves of the incr and
# store suites — semi-naive vs naive differential, live-session edits
# checked tuple-for-tuple against from-scratch solves, and the
# differential-snapshot (delta) round trips.
incr-smoke:
	dune build test/test_main.exe
	dune exec test/test_main.exe -- test incr -q
	dune exec test/test_main.exe -- test store -q

clean:
	dune clean
