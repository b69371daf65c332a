import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_vqe_counts_demo_writes_counts_and_objective(tmp_path):
    """The demo prints every triplet view (hit ids, layer span, truth) and
    writes the VQE histogram and the objective dump."""
    done = run_script("vqe_counts_demo.py", "--shots", "64", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert "7 triplet candidates" in done.stdout
    assert (tmp_path / "vqe_counts.csv").stat().st_size > 0
    assert (tmp_path / "seven_triplet_qubo.txt").stat().st_size > 0


def test_desk_scale_run_writes_metrics_and_plotdata(tmp_path):
    """simulate -> CSV -> reconstruct --jobs 4 -> evaluate -> plotdata."""
    done = run_script("run_desk_scale.py", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "metrics" / "metrics.json").stat().st_size > 0
    assert (tmp_path / "plotdata.csv").stat().st_size > 0
