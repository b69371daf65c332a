"""The pool of speculative VQE sub-solves: who gets one, and that no
process of it outlives the run."""

import contextlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from qubotrack import pipeline
from qubotrack.cli import EXIT_OK, main
from qubotrack.config import RunConfig
from qubotrack.geometry import build_geometry

SRC = Path(pipeline.__file__).resolve().parent.parent

needs_proc = pytest.mark.skipif(not Path("/proc/self/stat").is_file(),
                                reason="reads the session of each process from /proc")


def light_vqe_config(shots=512):
    d = RunConfig().to_dict()
    d["sim"]["mean_multiplicity"] = 10.0
    d["solver"] = "vqe"
    d["shots"] = shots
    return d


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def session_processes(sid: int) -> list[int]:
    """The processes of session ``sid`` that have not exited (zombies
    excluded), from the session field of ``/proc/<pid>/stat``."""
    alive = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # exited meanwhile
            continue
        # the fields after the parenthesised command: state, ppid, pgrp, session
        state, _, _, session = stat.rsplit(")", 1)[1].split()[:4]
        if int(session) == sid and state != "Z":
            alive.append(int(entry.name))
    return alive


@needs_proc
def test_no_process_of_the_session_outlives_a_vqe_run():
    script = f"""
import json
from qubotrack import pipeline
from qubotrack.config import RunConfig
from qubotrack.geometry import build_geometry
config = RunConfig.from_dict(json.loads({json.dumps(json.dumps(light_vqe_config()))}))
config = config.with_seed(2024)
events = pipeline.simulate_events(config, 1)
window, scaling, _ = pipeline.calibrate(events, config)
result = pipeline.reconstruct_event(events[0], build_geometry(config.geometry),
                                    window, scaling, config)
print(json.dumps([pipeline._pool is not None, result.report.subqubo_count]))
"""
    with subprocess.Popen([sys.executable, "-c", script], env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as child:
        out, err = child.communicate(timeout=120)
    assert child.returncode == 0, err
    pooled, subproblems = json.loads(out)
    assert subproblems > 1
    assert pooled == (len(os.sched_getaffinity(0)) > 1)
    assert session_processes(child.pid) == []


@needs_proc
def test_a_killed_run_leaves_no_worker():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: no worker is started")
    script = """
import time
from qubotrack import pipeline
pipeline._speculation_pool().submit(int).result()
print("ready", flush=True)
time.sleep(60)
"""
    with subprocess.Popen([sys.executable, "-c", script], env=child_env(),
                          stdout=subprocess.PIPE, text=True, start_new_session=True) as child:
        try:
            assert child.stdout.readline() == "ready\n"
            assert len(session_processes(child.pid)) == 2  # the run and its one worker
            child.kill()
            child.wait(timeout=10)
            deadline = time.monotonic() + 10
            while session_processes(child.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert session_processes(child.pid) == []
        finally:  # a worker left behind would otherwise run on after the test
            with contextlib.suppress(ProcessLookupError):
                os.killpg(child.pid, signal.SIGKILL)


@needs_proc
def test_a_killed_jobs_run_leaves_no_worker(tmp_path):
    run, cfg = tmp_path / "run", tmp_path / "config.json"
    cfg.write_text(json.dumps(light_vqe_config()))
    assert main(["simulate", "--config", str(cfg), "--seed", "5", "--out", str(run),
                 "--events", "40"]) == EXIT_OK
    script = ("from qubotrack.cli import main; main(['reconstruct', '--config', "
              f"{str(cfg)!r}, '--seed', '5', '--in', {str(run)!r}, '--jobs', '2'])")
    with subprocess.Popen([sys.executable, "-c", script], env=child_env(),
                          stdout=subprocess.DEVNULL, start_new_session=True) as child:
        deadline = time.monotonic() + 60
        while len(session_processes(child.pid)) < 3 and time.monotonic() < deadline:
            time.sleep(0.05)
        try:
            assert len(session_processes(child.pid)) == 3  # the run and its two workers
            child.kill()
            child.wait(timeout=10)
            deadline = time.monotonic() + 10
            while session_processes(child.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert session_processes(child.pid) == []
        finally:  # a worker left behind would otherwise run on after the test
            with contextlib.suppress(ProcessLookupError):
                os.killpg(child.pid, signal.SIGKILL)


def test_a_dead_worker_is_replaced_at_the_next_event(monkeypatch):
    if pipeline._speculation_pool() is None:
        pytest.skip("one CPU or no fork: no worker is started")
    config = RunConfig.from_dict(light_vqe_config(shots=16)).with_seed(2024)
    events = pipeline.simulate_events(config, 1)
    window, scaling, _ = pipeline.calibrate(events, config)

    def reconstruct():
        return pipeline.reconstruct_event(events[0], build_geometry(config.geometry),
                                          window, scaling, config).report.to_dict()

    dead = pipeline._speculation_pool()
    with pytest.raises(BrokenProcessPool):
        dead.submit(os._exit, 1).result(timeout=60)
    # the event's first submit finds the pool broken and forgets it; the
    # walk solves every group itself
    report = reconstruct()
    assert pipeline._pool is None
    fresh = pipeline._speculation_pool()
    assert fresh is not dead and fresh.submit(int).result(timeout=60) == 0
    assert reconstruct() == report
    monkeypatch.setattr(pipeline, "_speculation_pool", lambda: None)
    assert reconstruct() == report


def test_only_vqe_events_ask_for_a_pool(monkeypatch):
    asked = []
    monkeypatch.setattr(pipeline, "_speculation_pool", lambda: asked.append(True))
    for solver, want in (("exact", []), ("anneal", []), ("vqe", [True])):
        d = light_vqe_config(shots=16)
        d["solver"] = solver
        config = RunConfig.from_dict(d).with_seed(2024)
        events = pipeline.simulate_events(config, 1)
        window, scaling, _ = pipeline.calibrate(events, config)
        asked.clear()
        result = pipeline.reconstruct_event(events[0], build_geometry(config.geometry),
                                            window, scaling, config)
        assert result.report is not None and asked == want, solver


def pool_in_this_worker() -> bool:
    return pipeline._speculation_pool() is not None


def test_jobs_worker_gets_no_pool_and_outputs_match_one_job(tmp_path):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    pipeline._speculation_pool()  # a worker inherits this process's pool, if any
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as jobs:
        assert jobs.submit(pool_in_this_worker).result(timeout=60) is False

    config = tmp_path / "light_vqe.json"
    config.write_text(json.dumps(light_vqe_config(shots=64)))
    runs = {}
    for jobs in (1, 2):
        run = tmp_path / f"jobs{jobs}"
        assert main(["simulate", "--out", str(run), "--events", "4", "--seed", "5",
                     "--config", str(config)]) == EXIT_OK
        assert main(["reconstruct", "--in", str(run), "--seed", "5", "--config", str(config),
                     "--jobs", str(jobs), "--dump-qubo"]) == EXIT_OK
        runs[jobs] = run
    names = sorted(p.name for p in runs[1].iterdir() if p.name != "timing.json")
    assert "solve_report.json" in names and any(n.startswith("qubo_event") for n in names)
    assert names == sorted(p.name for p in runs[2].iterdir() if p.name != "timing.json")
    for name in names:
        assert (runs[1] / name).read_bytes() == (runs[2] / name).read_bytes(), name
