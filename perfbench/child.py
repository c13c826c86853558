"""One benchmark child: set up a workload, then run its items once.

    python3 perfbench/child.py WORKLOAD SEED MODE TRACE SPAWNED

MODE is ``setup`` (stop before the first item) or ``pass`` (run every
item once).  With TRACE 1 the layer functions are wrapped before
set-up.  SPAWNED is the parent's ``time.monotonic()`` just before it
started this process.  ``start_s`` runs from SPAWNED to the entry of
``main``: interpreter start and the standard-library imports above,
none of it msograph's.  ``setup_s`` runs from SPAWNED to the first
item, so it adds the import of msograph and building and parsing the
inputs.  The child prints one JSON object on stdout.
"""

import json
import resource
import statistics
import sys
import time
from pathlib import Path

from reference import SpeedSampler


def run_items(items, judge, sampler: SpeedSampler) -> tuple[float, list[list]]:
    """Run each item once.  Returns the summed item time and one row per
    item: name, seconds, verdicts attempted, failed, unknown, and the
    mean reference slice around it (the one before it, those during it
    and the one after it).  Item times leave out the slices."""
    sampler.sample()
    rows, windows = [], []
    with sampler:
        for item in items:
            n0 = len(sampler.samples)
            t0 = sampler.clock()
            out = judge(item)
            seconds = sampler.clock() - t0
            windows.append((n0 - 1, len(sampler.samples) + 1))
            rows.append([item.name, seconds, out.attempted, out.failed,
                         out.unknown])
    sampler.sample()
    for row, (lo, hi) in zip(rows, windows):
        row.append(statistics.fmean(sampler.samples[lo:hi]))
    return sum(row[1] for row in rows), rows


def main(argv: list[str]) -> int:
    started = time.monotonic()
    workload, seed, mode, trace, spawned = argv
    src = Path(__file__).resolve().parent.parent / "src"
    import msograph
    if Path(msograph.__file__).resolve().parent.parent != src:
        print(f"msograph imported from {msograph.__file__}, not {src}",
              file=sys.stderr)
        return 2
    sampler = SpeedSampler()
    spans = None
    if trace == "1":
        import layers
        import spans as spans_mod
        # spans read the sampler's clock, so they leave out the slices
        spans = spans_mod.Spans(clock=sampler.clock)
        spans_mod.install(spans, layers.targets())
    import workloads
    items = workloads.WORKLOADS[workload](int(seed))
    first = time.monotonic()
    result = {"start_s": started - float(spawned),
              "setup_s": first - float(spawned)}
    if mode == "pass":
        result["wall_s"], result["items"] = run_items(
            items, workloads.judge, sampler)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result["maxrss_kb"] = usage.ru_maxrss
        if spans is not None:
            result["spans"] = spans.to_json()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
