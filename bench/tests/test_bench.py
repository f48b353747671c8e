"""Tests of the benchmark itself: its generator, result format and checks.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def _cli(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    gen.generate(workload, 7, tmp_path / "a", "tiny")
    gen.generate(workload, 7, tmp_path / "b", "tiny")
    gen.generate(workload, 8, tmp_path / "c", "tiny")
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")


def test_every_benchmark_metric_is_printed_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _result(_cli(["--workload", "shard_io", "--seed", "3", "--seconds", "0.5",
                               "--trace", str(trace), "--size", "tiny"]))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[section]}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_tiny_smoke_run_has_no_failures(tmp_path, workload):
    result, detail = run.run_untraced(workload, 5, 0.3, "tiny", run.load_reference(), tmp_path)
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] > 1
    assert detail["fail_ratio"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_default_seed_matches_the_stored_reference(tmp_path):
    result, _ = run.run_untraced("lmfree_bias", run.DEFAULT_SEED, 0.3, run.REFERENCE_SIZE, run.load_reference(), tmp_path)
    assert result["correct"]


def test_corrupted_reference_digest_counts_as_failure(tmp_path):
    reference = run.load_reference()
    first = sorted(reference["lm_stream"])[0]
    reference["lm_stream"][first] = "0" * 64
    result, detail = run.run_untraced("lm_stream", 5, 0.2, "tiny", reference, tmp_path)
    assert not result["correct"]
    assert result["failed"] == 1
    assert detail["fail_ratio"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = _cli(["--workload", "lm_stream", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
