"""Regenerate ``goldens.json``, the digests every benchmark run checks.

    python3 perfbench/goldens.py

For every workload, golden seed and recipe it simulates the recipe on
the reference engine and on the fast engine through
:class:`~repro.analysis.runner.ExperimentRunner` (no cache), and stores
``sha256(pickle.dumps(result, 4))``.  It refuses to write anything when
the engines disagree or a run is truncated.  Regenerate only in a change
that is about the benchmark itself (see README.md).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.analysis.runner import ExperimentRunner

    from perfbench import run
    from perfbench import workloads as wk

    run._pin_environment()
    goldens = {}
    errors = []
    for wl in wk.WORKLOADS.values():
        table = goldens[wl.name] = {}
        for seed in range(wk.DEFAULT_SEED, wk.DEFAULT_SEED + wk.GOLDEN_SEEDS):
            digests = {}
            for engine in ("reference", "fast"):
                runner = ExperimentRunner(
                    scale=wl.scale, max_cycles=wl.max_cycles, seed=seed,
                    use_cache=False, jobs=1, engine=engine)
                for recipe, result in zip(wl.recipes,
                                          runner.run_many(wl.recipes)):
                    key = wk.golden_key(recipe, wl.scale, wl.max_cycles)
                    dig = wk.result_digest(result)
                    if not result.completed or result.truncated:
                        errors.append(f"{wl.name} {seed} {key}: truncated")
                    if engine == "fast" and digests[key] != dig:
                        errors.append(f"{wl.name} {seed} {key}: reference "
                                      f"{digests[key]} != fast {dig}")
                    digests[key] = dig
            table[str(seed)] = digests
            print(f"{wl.name} seed {seed}: {len(digests)} recipes",
                  file=sys.stderr, flush=True)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    wk.GOLDENS_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True)
                               + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
