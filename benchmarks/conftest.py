"""Benchmark-suite plumbing.

Each benchmark regenerates one paper figure/table at a reduced scale (see
DESIGN.md), asserts its qualitative *shape*, and writes the full text report
to ``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can reference exact
measured numbers.
"""

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def run_figure(benchmark, name, run, report, **kwargs):
    """``run(**kwargs)`` once under pytest-benchmark; ``report(result)`` is
    written to ``results/<name>.txt`` and printed.  Returns the result."""
    result = benchmark.pedantic(run, kwargs=kwargs, rounds=1, iterations=1)
    text = report(result)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
    return result
