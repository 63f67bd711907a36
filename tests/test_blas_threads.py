"""hierdp loads numpy with one OpenBLAS thread unless the caller chose a
pool size. Each case runs in a fresh interpreter, because numpy sizes
the pool once, when it loads."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hierdp
from hierdp.hierarchy import SynthSpec, serialize_hierarchy, synth_hierarchy

SRC = str(Path(hierdp.__file__).resolve().parents[1])


def _run(args, blas_threads=None):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
class TestThreadsAfterImport:
    PROBE = (
        "import os, hierdp; "
        "print(len(os.listdir('/proc/self/task')), "
        "'OPENBLAS_NUM_THREADS' in os.environ)"
    )

    def test_one_thread_and_environment_unchanged(self):
        assert _run(["-c", self.PROBE]).split() == ["1", "False"]

    @pytest.mark.skipif(_cpus() < 2, reason="needs at least 2 CPUs")
    def test_caller_keeps_their_pool(self):
        assert _run(["-c", self.PROBE], blas_threads="2").split() == ["2", "True"]


def test_allocation_bytes_do_not_depend_on_core_count(tmp_path):
    # a threaded dot product over a level's distinct counts sums in an
    # order set by the core count; 20,000 distinct leaves are enough to
    # move the last bits of the split when it runs threaded
    h = synth_hierarchy(SynthSpec(seed=0, fanouts=(100, 200)))
    rng = np.random.default_rng(2)
    noisy = {
        lv: np.maximum(0.0, h.level_counts(lv) + rng.laplace(0.0, 1.0, len(h.level_ids(lv))))
        for lv in range(1, h.depth + 1)
    }
    prior = tmp_path / "prior.csv"
    prior.write_text(serialize_hierarchy(h, noisy))
    args = ["-m", "hierdp.cli", "allocate", "--synth", "--prior", str(prior),
            "--eps-total", "2"]
    assert _run(args) == _run(args, blas_threads="1")
