"""The msograph benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports msograph from ``src/``.
Every pass runs in a fresh child process (``child.py``), one at a time,
with a fixed PYTHONHASHSEED, so a child's ``ru_maxrss`` is that pass's
own peak and its set-up includes the import.  The load is a closed loop
with a single client: children are started back to back until S
seconds have gone by (at least one pass).

With ``--trace 0`` the run prints the end-to-end metrics; a few extra
children that only set up make ``setup_s`` a median.  With
``--trace 1`` it alternates untraced passes with passes whose layer
functions are wrapped, and prints the per-layer metrics.  The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("word-grid", "sentence-check", "census-iso", "width-oracles")
HASH_SEED = "0"
SETUP_ONLY_CHILDREN = 12
# setup_s is reported in seconds of a host whose bare interpreter start
# (a child's start_s) takes this long; see end_to_end()
NOMINAL_START_S = 0.070
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, trace: str,
          deadline: float) -> dict:
    """Run one child to completion and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED=HASH_SEED)
    spawned = time.monotonic()
    timeout = deadline - spawned
    if timeout <= 0:
        raise ChildFailed("no time left for another child")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed),
             mode, trace, repr(spawned)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise ChildFailed(f"{mode} child exceeded the run limit") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def passes(workload: str, seed: int, traces: tuple[str, ...],
           seconds: float, deadline: float) -> list[list[dict]]:
    """Rounds of pass children, one child per entry of ``traces`` in
    turn, back to back until ``seconds`` have gone by."""
    out: list[list[dict]] = []
    start = time.monotonic()
    while not out or time.monotonic() - start < seconds:
        out.append([spawn(workload, seed, "pass", t, deadline)
                    for t in traces])
    return out


def in_refs(r: dict) -> list[float]:
    """A pass's item times in units of the reference slice sampled
    during and around each item (see ``reference.py``), which cancels
    the host's swings in speed."""
    return [row[1] / row[5] for row in r["items"]]


def setup_seconds(children: list[dict]) -> float:
    """The median over ``children`` of each child's set-up divided by
    its own interpreter start, times NOMINAL_START_S.  The interpreter
    start slows down with the host as the set-up does, and msograph has
    no share in it."""
    return _median(c["setup_s"] / c["start_s"]
                   for c in children) * NOMINAL_START_S


def end_to_end(children: list[dict], runs: list[dict], attempted: int,
               failed: int) -> dict[str, tuple[float, str]]:
    """Medians over the untraced passes ``runs``; ``setup_s`` over
    ``children``, every child of the run but the first."""
    return {
        "wall_ref": (_median(sum(in_refs(r)) for r in runs), "ref"),
        "item_max_ref": (_median(max(in_refs(r)) for r in runs), "ref"),
        "peak_rss_mb": (_median(r["maxrss_kb"] for r in runs) / 1024, "MB"),
        "setup_s": (setup_seconds(children), "s"),
        "check_pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def _median(values) -> float:
    return statistics.median(list(values))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "msograph" / "__init__.py").is_file():
        print(f"no msograph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    w, seed = args.workload, args.seed
    try:
        # The first child may compile bytecode; it is not measured.
        spawn(w, seed, "setup", "0", deadline)
        if args.trace == "0":
            setups = [spawn(w, seed, "setup", "0", deadline)
                      for _ in range(SETUP_ONLY_CHILDREN)]
            untraced = [r for (r,) in passes(w, seed, ("0",), args.seconds,
                                             deadline)]
            traced = []
        else:
            # alternated, so that the host's drift falls on both alike
            rounds = passes(w, seed, ("0", "1"), args.seconds, deadline)
            untraced = [u for u, _ in rounds]
            traced = [t for _, t in rounds]
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    rows = [row for r in untraced + traced for row in r["items"]]
    attempted = sum(row[2] for row in rows)
    failed = sum(row[3] for row in rows)
    print(f"workload {w}, seed {seed}, PYTHONHASHSEED={HASH_SEED}, "
          f"{len(untraced)} untraced and {len(traced)} traced passes")
    print(f"check_fail_ratio {failed / attempted:.6f} ratio "
          f"({failed} of {attempted} verdicts failed, "
          f"{sum(row[4] for row in rows)} unknown)")
    if args.trace == "0":
        children = setups + untraced
        metrics = end_to_end(children, untraced, attempted, failed)
        wall = _median(r["wall_s"] for r in untraced)
        slowest = _median(max(row[1] for row in r["items"]) for r in untraced)
        slice_ms = 1e3 * _median(row[5] for r in untraced
                                 for row in r["items"])
        print(f"in seconds: wall {wall:.4f} s, slowest item {slowest:.4f} s, "
              f"reference slice {slice_ms:.4f} ms, set-up "
              f"{_median(c['setup_s'] for c in children):.4f} s, "
              f"interpreter start "
              f"{_median(c['start_s'] for c in children):.4f} s")
    else:
        import layers
        import spans
        merged = spans.Spans()
        for r in traced:
            merged.merge(r["spans"])
        metrics = layers.metrics(
            merged, len(traced),
            # a mean, like the per-layer figures it is compared with
            statistics.fmean(r["wall_s"] for r in traced),
            statistics.fmean(sum(in_refs(r)) for r in traced)
            / statistics.fmean(sum(in_refs(r)) for r in untraced))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
