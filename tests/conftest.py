"""Shared test plumbing: one BLAS thread, and the acceptance criterion lines in the summary.

The thread counts are set before anything imports numpy.  Acceptance time
gates read `time.process_time()`, which also counts BLAS worker threads that
spin while they wait on a loaded host.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
