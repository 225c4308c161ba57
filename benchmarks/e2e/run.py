"""One run of one workload; the last line of standard output is the result.

    python3 benchmarks/e2e/run.py --workload join_scan --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that yields the per-layer metrics.  Without
``--workload`` the whole suite runs (see ``suite.py``).
"""

import time

# Set-up time of a join workload counts from here: before any import of the
# program under test.
PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
if __name__ == "__main__":
    # The harness must never reach a deprecated alias, at import time
    # included; server subprocesses get the same filter on their command line.
    warnings.simplefilter("error", DeprecationWarning)

from benchmarks.e2e import joins, layers, serving, suite  # noqa: E402
from benchmarks.e2e.inputs import BY_NAME, SIZES  # noqa: E402
from benchmarks.e2e.speed import pin_to_one_cpu  # noqa: E402
from benchmarks.e2e.summary import RunResult  # noqa: E402


def declared() -> dict:
    """``BENCHMARK.json``: the one place metric names and units live."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes_name: str = "full") -> RunResult:
    """Run one workload once, untraced or traced."""
    workload, sizes = BY_NAME[name], SIZES[sizes_name]
    if trace:
        return layers.run(workload, seed, seconds, sizes)
    if workload.kind == "join":
        return joins.run(workload, seed, seconds, sizes, PROCESS_STARTED)
    return serving.run(workload, seed, seconds, sizes)


def result_line(result: RunResult, units: dict[str, str]) -> str:
    """The driver's result object, as one line of JSON."""
    return json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items()}})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 benchmarks/e2e/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=sorted(SIZES), default="full")
    parser.add_argument("--setup-only", action="store_true",
                        help="join workloads: set up, print the seconds, exit")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="also write the full result (diagnostics, spans) "
                             "as JSON")
    suite.add_arguments(parser)
    args = parser.parse_args(argv)
    benchmark = declared()
    seconds = args.seconds or float(benchmark["run_seconds"])
    if args.workload is None:
        return suite.main(args, benchmark, seconds)

    if args.setup_only:
        joins.set_up(BY_NAME[args.workload], args.seed, SIZES[args.sizes])
        print(joins.setup_seconds(PROCESS_STARTED))
        return 0

    result = run_workload(args.workload, args.seed, seconds, bool(args.trace),
                          args.sizes)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in benchmark[kind]}
    if set(result.metrics) != set(units):
        raise SystemExit("metric names differ from BENCHMARK.json: "
                         f"{sorted(set(result.metrics) ^ set(units))}")
    print(f"# {args.workload} seed={args.seed} seconds={seconds:g} "
          f"trace={args.trace}")
    for name, unit in units.items():
        print(f"{name:40s} {result.metrics[name]:14.6g} {unit}")
    print("# diagnostics (not gated): "
          + json.dumps(result.diagnostics, default=str))
    if args.report:
        Path(args.report).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": seconds,
            "trace": args.trace, "metrics": result.metrics,
            "attempted": result.attempted, "failed": result.failed,
            "diagnostics": result.diagnostics, "spans": result.spans},
            default=str))
    print(result_line(result, units))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    # Run from the command line, the benchmark keeps to one vCPU (speed.py).
    pin_to_one_cpu()
    sys.exit(main())
