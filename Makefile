.PHONY: all check test release serve-smoke lint clean

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

ANALYZE = _build/default/bin/analyze_main.exe
JEDDD = _build/default/bin/jeddd_main.exe
LINT = _build/lint

# $(call usage_error,COMMAND,MESSAGE): COMMAND must exit 2 after
# printing exactly one line on stderr, and that line must contain
# MESSAGE, so a check cannot pass on some other refusal.
usage_error = $(1) 2> $(LINT)/err; s=$$?; cat $(LINT)/err >&2; \
  test $$s -eq 2 && test "$$(wc -l < $(LINT)/err)" -eq 1 && \
  grep -qF -- '$(2)' $(LINT)/err

# jeddlint over the shipped sources: the clean example and the five
# Figure 2 analyses must produce no warnings or errors (exit 0); the
# seeded-defect examples must trip the checkers (exit non-zero).  Then
# the CLI pipeline once more, with every executed IR instruction
# shadow-checked against the refcount discipline (JEDD_CHECK_IR) and
# the results verified tuple for tuple; and bad command-line input (an
# unknown benchmark, a missing program or snapshot file, a program that
# does not parse, a socket path in a missing directory, a daemon with
# no listener) must be a one-line usage error (exit 2), not a crash.
# The missing paths live under $(LINT), which is deleted first.
lint:
	dune build bin/jeddc_main.exe bin/analyze_main.exe bin/jeddd_main.exe
	dune exec bin/jeddc_main.exe -- --lint=text examples/lint_clean.jedd
	dune exec bin/analyze_main.exe -- -b tiny --lint
	dune exec bin/analyze_main.exe -- -f examples/shapes.mjava --lint
	! dune exec bin/jeddc_main.exe -- --lint=text examples/lint_defects.jedd
	! dune exec bin/jeddc_main.exe -- --lint=text examples/cost_defects.jedd
	JEDD_CHECK_IR=1 dune exec bin/analyze_main.exe -- -b tiny --verify
	rm -rf $(LINT) && mkdir -p $(LINT)
	$(call usage_error,$(ANALYZE) -b nosuch,jedd-analyze: unknown benchmark nosuch)
	$(call usage_error,$(JEDDD) -b nosuch -s $(LINT)/j.sock,jeddd: unknown benchmark nosuch)
	$(call usage_error,$(ANALYZE) -f $(LINT)/missing.mjava,jedd-analyze: $(LINT)/missing.mjava: No such file)
	$(call usage_error,$(JEDDD) --snapshot $(LINT)/missing.snap -s $(LINT)/j.sock,jeddd: $(LINT)/missing.snap: No such file)
	printf 'garbage {{{\n' > $(LINT)/bad.mjava
	$(call usage_error,$(ANALYZE) -f $(LINT)/bad.mjava,jedd-analyze: $(LINT)/bad.mjava:1: expected class)
	$(call usage_error,$(JEDDD) -b tiny -s $(LINT)/missing/j.sock,jeddd: cannot listen on $(LINT)/missing/j.sock)
	$(call usage_error,$(ANALYZE) -b tiny --serve $(LINT)/missing/a.sock,jedd-analyze: cannot listen on $(LINT)/missing/a.sock)
	$(call usage_error,$(JEDDD) -b tiny --no-socket,jeddd: --no-socket leaves no listener)

# Optimised binaries (-O3 -unsafe -noassert); see the root `dune` file.
release:
	dune build --profile release

# End-to-end daemon round trip: jeddd cold start, jeddq queries over
# the socket, snapshot save, warm restart, answers compared; then a
# jeddd --live start and one update through jeddq, checked for its
# generation, a grown points-to set and the served universe hash.
serve-smoke:
	sh scripts/serve_smoke.sh

clean:
	dune clean
