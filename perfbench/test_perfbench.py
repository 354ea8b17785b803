"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

The end-to-end tests run the benchmark from a temporary copy of
``perfbench/`` (sources linked in) so the repository is never written.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import layers
from perfbench import workloads as wk

ROOT = Path(__file__).resolve().parent.parent


def _copy(tmp_path: Path, with_sources: bool = True) -> Path:
    dst = tmp_path / "checkout"
    shutil.copytree(ROOT / "perfbench", dst / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    if with_sources:
        (dst / "src").symlink_to(ROOT / "src")
    return dst


def _run(checkout: Path, workload: str, seconds: str = "1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(wk.DEFAULT_SEED), "--seconds", seconds,
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )


def test_seed_fold_covers_golden_seeds():
    seeds = range(wk.DEFAULT_SEED, wk.DEFAULT_SEED + wk.GOLDEN_SEEDS)
    assert [wk.workload_seed(s) for s in seeds] == list(seeds)
    assert wk.workload_seed(wk.DEFAULT_SEED + wk.GOLDEN_SEEDS) == 2011
    assert all(wk.workload_seed(s) in seeds for s in range(-5, 40))
    assert wk.HELD_OUT_SEED in seeds


def test_goldens_cover_every_recipe_and_seed():
    goldens = wk.load_goldens()
    for wl in wk.WORKLOADS.values():
        for seed in range(wk.DEFAULT_SEED, wk.DEFAULT_SEED + wk.GOLDEN_SEEDS):
            table = goldens[wl.name][str(seed)]
            for recipe in wl.recipes:
                key = wk.golden_key(recipe, wl.scale, wl.max_cycles)
                assert len(table[key]) == 64, (wl.name, seed, key)


def test_missing_golden_fails_the_operation():
    wl = wk.WORKLOADS["serve_cache"]
    check = wk.OutputCheck({}, wl, wk.DEFAULT_SEED)
    assert check.payload(wl.recipes[0], "fast", b"x") is None
    assert check.failed == 1 and check.attempted == 1
    assert "no golden digest" in check.failures[0]


class _Toy:
    def outer(self):
        time.sleep(0.02)
        return self.inner() + 1

    def inner(self):
        time.sleep(0.03)
        return 1


class _ToyChild(_Toy):
    pass


def test_self_time_excludes_wrapped_children():
    tr = layers.Tracer()
    tr.span(_Toy, "outer", "a")
    tr.span(_Toy, "inner", "b")
    try:
        assert _Toy().outer() == 2
    finally:
        tr.uninstall()
    assert tr.calls("a.outer") == 1 and tr.calls("b.inner") == 1
    assert 0.015 < tr.self_s("a") < 0.028
    assert 0.025 < tr.self_s("b") < 0.045
    assert tr.incl_s("a.outer") >= tr.self_s("a") + tr.self_s("b") - 1e-3


def test_uninstall_restores_own_and_inherited_functions():
    own = _Toy.__dict__["outer"]
    tr = layers.Tracer()
    tr.span(_Toy, "outer", "a")
    tr.span(_ToyChild, "inner", "b")   # inherited: shadowed on the child
    assert _Toy.__dict__["outer"] is not own
    assert "inner" in _ToyChild.__dict__
    tr.uninstall()
    assert _Toy.__dict__["outer"] is own
    assert "inner" not in _ToyChild.__dict__


@pytest.mark.parametrize("workload", ["serve_cache", "local_compute4"])
def test_corrupted_golden_fails_the_run(tmp_path, workload):
    checkout = _copy(tmp_path)
    path = checkout / "perfbench" / "goldens.json"
    goldens = json.loads(path.read_text())
    wl = wk.WORKLOADS[workload]
    key = wk.golden_key(wl.recipes[0], wl.scale, wl.max_cycles)
    real = goldens[workload][str(wk.DEFAULT_SEED)][key]
    fake = "0" * 64
    goldens[workload][str(wk.DEFAULT_SEED)][key] = fake
    path.write_text(json.dumps(goldens))

    proc = _run(checkout, workload)
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"] == {}
    assert f"expected {fake}, actual {real}" in proc.stderr
    assert key in proc.stderr and "[fast" in proc.stderr


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    checkout = _copy(tmp_path, with_sources=False)
    proc = _run(checkout, "ptb_sync16")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
