"""Benchmark of wvad: one workload per run, measured in a child process.

    python3 bench/run.py --workload train|score|gradcheck --seed N \
        --seconds S --trace 0|1
    python3 bench/run.py --self-check

Run from the root of a checkout. The child imports wvad from ``src/`` of
that checkout, with the OpenBLAS/OpenMP/MKL thread counts set to 1, and
writes only under ``.bench_work/``. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from wrapping the modules' functions (see bench/spec.py and
bench/README.md). Every metric is printed by name with its unit above it,
with the environment and any failed check.

``--self-check`` runs every workload at its smallest size, traced and
untraced, and checks that every metric name, unit and direction matches
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import spec  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD_TIMEOUT_S = 170


def child_command(workload: str, seed: int, seconds: float, trace: int, size: str):
    return [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--size", size]


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in spec.THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(cmd: list[str], capture: bool) -> tuple[int, str]:
    """Run the child to completion; it is killed and reaped on any way out."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        return proc.returncode, out.decode() if capture else ""
    except subprocess.TimeoutExpired:
        print(f"benchmark child exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def self_check() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for key, table in (("end_to_end", spec.END_TO_END), ("per_layer", spec.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in declared[key]}
        if listed != table:
            problems.append(f"BENCHMARK.json {key} differs from bench/spec.py: "
                            f"{sorted(set(listed.items()) ^ set(table.items()))}")
    if [w["name"] for w in declared["workloads"]] != list(spec.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from bench/spec.py")
    for workload in spec.WORKLOADS:
        for trace, table in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
            code, out = run_child(child_command(workload, 0, 1, trace, "small"), capture=True)
            label = f"{workload} trace {trace}"
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: exit {code}, no result line")
                continue
            if code != 0 or set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: exit {code}, keys {sorted(result)}")
                continue
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            units = {n: m["unit"] for n, m in result["metrics"].items()}
            if units != {n: u for n, (u, _) in table.items()}:
                problems.append(f"{label}: reported names/units differ from the declared ones")
            print(f"{label}: {len(units)} metrics, attempted {result['attempted']}, "
                  f"failed {result['failed']}")
    for problem in problems:
        print(problem)
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="wvad benchmark")
    p.add_argument("--workload", choices=spec.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "wvad" / "__init__.py").is_file():
        print(f"no wvad sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    # turn SIGTERM into SystemExit so run_child's cleanup kills the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.self_check:
        return self_check()
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    code, _ = run_child(child_command(args.workload, args.seed, args.seconds,
                                      args.trace, "full"), capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
