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


# recorded before the VQE returned measured indices: the triplet columns, the
# optimum, and a histogram whose ties keep the order of first occurrence
DEMO_STDOUT = """\
7 triplet candidates from two nearby particles:
  T0: hits (0, 1, 2)  span (0, 2)  dtheta 0.000 mrad  [truth]
  T1: hits (0, 1, 6)  span (0, 2)  dtheta 0.558 mrad  [fake ]
  T2: hits (4, 5, 2)  span (0, 2)  dtheta 0.558 mrad  [fake ]
  T3: hits (4, 5, 6)  span (0, 2)  dtheta 0.000 mrad  [truth]
  T4: hits (1, 2, 3)  span (1, 3)  dtheta 0.000 mrad  [truth]
  T5: hits (5, 2, 3)  span (1, 3)  dtheta 0.837 mrad  [fake ]
  T6: hits (5, 6, 7)  span (1, 3)  dtheta 0.299 mrad  [truth]

enumerated optimum: 1001101  (objective -5.3882)
simulated VQE (64 shots, seed 5, readout flip 0.1):
  best sampled bitstring: 1001101  (energy -5.3882)
  final measurement histogram (bit=1 <=> triplet selected):
    1001101    21  (0.328) <- optimum
    1000101     7  (0.109)
    1001100     5  (0.078)
    1011101     4  (0.062)
    1001001     3  (0.047)
    1000100     3  (0.047)
    1101101     2  (0.031)
    1000001     2  (0.031)
    1001000     2  (0.031)
    1001110     2  (0.031)

counts and objective dump written to {out}
"""


def test_vqe_counts_demo_writes_counts_and_objective(tmp_path):
    """The demo prints every triplet (hit ids, layer span, truth) and the
    VQE histogram as pinned, and writes the histogram and the objective
    dump."""
    done = run_script("vqe_counts_demo.py", "--shots", "64", "--readout-flip", "0.1",
                      "--seed", "5", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout == DEMO_STDOUT.format(out=tmp_path)
    assert (tmp_path / "vqe_counts.csv").stat().st_size > 0
    assert (tmp_path / "seven_triplet_qubo.txt").stat().st_size > 0


def test_desk_scale_run_writes_metrics_and_plotdata(tmp_path):
    """simulate -> CSV -> reconstruct --jobs 4 -> evaluate -> plotdata."""
    done = run_script("run_desk_scale.py", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "metrics" / "metrics.json").stat().st_size > 0
    assert (tmp_path / "plotdata.csv").stat().st_size > 0
