"""Run one workload of the end-to-end benchmark and print its metrics.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload sweep --seed 1 --seconds 40 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 40

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that measures the per-layer metrics.  The metric
names and units come from ``BENCHMARK.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when no op failed: every op was
answered, and every answer was right.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "serve-churn")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="e2ebench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="small", choices=("small", "tiny"),
                        help="graph size preset (tiny is for the benchmark's own tests)")
    parser.add_argument("--out-dir", default=".bench_out",
                        help="where result and span files go, relative to the repository root")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so no run inherits another's memory."""
    worst = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size, "--out-dir", args.out_dir]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT, check=False).returncode)
    return worst


def _exit_on_sigterm(signum, frame) -> None:
    """SIGTERM ends the run like an error does, so every ``finally`` runs
    and each child process is stopped and waited for."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if args.workload == "all":
        return run_all(args)
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
        import numpy  # noqa: F401
        import repro  # noqa: F401
    except (OSError, ValueError, ImportError) as exc:
        print(f"e2ebench: cannot load the program under {ROOT}: {exc}", file=sys.stderr)
        return 2

    from e2ebench.common import Context, Report, machine_info

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    ctx = Context(
        root=ROOT, workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), size=args.size, out_dir=ROOT / args.out_dir,
    )
    report = Report(layer_names=tuple(m["name"] for m in spec["per_layer"]))
    if args.workload == "sweep":
        from e2ebench.sweep import run as runner
    else:
        from e2ebench.serve import run as runner
    runner(ctx, report)
    report.info["machine"] = machine_info()
    if not args.trace:
        report.metrics["ok_ratio"] = 1.0 - report.failed / max(1, report.attempted)

    missing = sorted(set(units) - set(report.metrics))
    extra = sorted(set(report.metrics) - set(units))
    if missing or extra:
        print(f"e2ebench: metric set mismatch: missing {missing}, unexpected {extra}",
              file=sys.stderr)
        return 3

    m = report.info["machine"]
    print(f"== e2ebench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print(f"  nproc={m['nproc']} calibration={m['calibration_ms']:.2f} ms "
          f"python={m['python']} numpy={m['numpy']}")
    for line in report.lines:
        print(line)
    print(f"  {'metric':<34} {'value':>14}  unit")
    for name in units:
        print(f"  {name:<34} {report.metrics[name]:>14.6g}  {units[name]}")
    print(f"  correct={report.correct} attempted={report.attempted} failed={report.failed} "
          f"failed_ratio={report.failed / max(1, report.attempted):.6f}")

    out = {
        "correct": report.correct,
        "attempted": int(report.attempted),
        "failed": int(report.failed),
        "metrics": {
            name: {"value": float(report.metrics[name]), "unit": units[name]} for name in units
        },
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ctx.out_dir.mkdir(parents=True, exist_ok=True)
    spans = report.info.pop("spans", None)
    if spans is not None:
        spans.write(ctx.out_dir / f"spans-{stem}.json")
    (ctx.out_dir / f"result-{stem}.json").write_text(
        json.dumps({**out, "info": report.info, "lines": report.lines}, indent=1,
                   default=str) + "\n", encoding="utf-8")
    print(json.dumps(out), flush=True)
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
