# Convenience wrapper around dune.  `make check` is the CI entry point:
# build, unit/property tests, translation-validate the full evaluation
# suite by differential execution (bit-for-bit integers, 2-ULP floats,
# serial + p in {1,2,4,8}), execute both configurations of every code
# for real on 1, 2 and 4 domains against the serial interpreter, then a
# 120-seed chaos sweep: injected pass faults must be contained,
# attributed and oracle-equivalent.

.PHONY: all build test validate chaos check bench measure native clean

all: build

build:
	dune build

test: build
	dune runtest

validate: build
	dune exec bin/polaris_cli.exe -- validate --suite --real-procs 1,2,4 --trace trace-report.json

chaos: build
	dune exec bin/polaris_cli.exe -- chaos --seeds 120 --out chaos-report.json

check: build
	dune runtest
	dune exec bin/polaris_cli.exe -- validate --suite --real-procs 1,2,4 --trace trace-report.json
	dune exec bin/polaris_cli.exe -- chaos --seeds 120 --out chaos-report.json

# The paper's tables and figures, in simulated time (EXPERIMENTS.md).
bench: build
	dune exec bench/main.exe

# The wall-clock benchmark (BENCHMARK.json, measure/README.md): every
# workload in its own child process, outputs checked against a
# reference, result set written to measure-result.json.  Exits
# non-zero if any op fails its check or -j 2 output differs from -j 1.
# measure/README.md covers more seeds, traced runs, agree and compare.
measure:
	bash measure/run.sh run --seed 1 --out measure-result.json

# Native toolchain check: compile the f77-omp output with gfortran
# -fopenmp and the C output with cc -fopenmp for three suite codes, run
# the executables, and numerically diff their stdout against the
# interpreter oracle.  Any toolchain the host lacks is skipped cleanly.
native: build
	dune exec bin/polaris_cli.exe -- native --codes swim,tomcatv,arc2d --backends f77-omp,c

clean:
	dune clean
