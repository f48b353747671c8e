"""Each script under `scripts/` runs to the end at a small size."""

import subprocess
import sys
from pathlib import Path

from ctcdec.graph import tlg_stages

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _first_words(script: str, *args: str) -> list[str]:
    done = subprocess.run([sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return [line.split()[0] for line in done.stdout.splitlines() if line.strip()]


def test_graph_stages_reports_every_stage_of_build_TLG():
    stages = [name for name, _ in tlg_stages(None, None, None)]
    assert _first_words("graph_stages.py", "--workload", "lm_stream", "--seed", "5") == [*stages, "write", "read"]


def test_long_stream():
    assert _first_words("long_stream.py", "--frames", "400") == ["wfst", "prefix"]


def test_context_boost_sweep():
    assert _first_words("context_boost_sweep.py", "--utterances", "4")
