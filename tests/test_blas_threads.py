"""hierdp loads numpy with one OpenBLAS thread unless the caller chose a
pool size, and its allocations and downstream report do not depend on
which OpenBLAS kernel runs. Release bytes do still depend on numpy's
SIMD dispatch. Each case runs in a fresh interpreter, because numpy
sizes the pool and picks the kernels once, when it loads."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hierdp
from hierdp.hierarchy import SynthSpec, serialize_hierarchy, synth_hierarchy

SRC = str(Path(hierdp.__file__).resolve().parents[1])


def _run(args, **openblas_env):
    env = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(openblas_env)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _kernels() -> list[str]:
    """The OpenBLAS kernels this CPU can run, or none where numpy's
    OpenBLAS does not pick its kernel at run time. Forcing a kernel the
    CPU lacks may crash the process."""
    try:
        flags = set(Path("/proc/cpuinfo").read_text().split())
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (OSError, TypeError, KeyError):  # no /proc, or numpy < 1.26
        return []
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return []
    optional = {"Haswell": "avx2", "SkylakeX": "avx512f"}
    return ["Prescott"] + [k for k, flag in optional.items() if flag in flags]


KERNELS = _kernels()


def _simd_features() -> dict:
    """The SIMD features numpy found on this CPU and did not disable."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


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
        assert _run(["-c", self.PROBE], OPENBLAS_NUM_THREADS="2").split() == ["2", "True"]


@pytest.fixture
def noisy_prior(tmp_path) -> Path:
    """A noisy release of a 100 x 200 tree: 20,000 distinct leaf counts,
    enough to move the last bits of a split whose sums change order."""
    h = synth_hierarchy(SynthSpec(seed=0, fanouts=(100, 200)))
    rng = np.random.default_rng(2)
    noisy = {
        lv: np.maximum(0.0, h.level_counts(lv) + rng.laplace(0.0, 1.0, len(h.level_ids(lv))))
        for lv in range(1, h.depth + 1)
    }
    prior = tmp_path / "prior.csv"
    prior.write_text(serialize_hierarchy(h, noisy))
    return prior


def test_allocation_bytes_do_not_depend_on_core_count(noisy_prior):
    args = ["-m", "hierdp.cli", "allocate", "--synth", "--prior", str(noisy_prior),
            "--eps-total", "2"]
    assert _run(args) == _run(args, OPENBLAS_NUM_THREADS="1")


def _one_output_per_kernel(args):
    # each OpenBLAS kernel sums in its own order, so only a command that
    # makes no BLAS call can have the same bytes under all of them
    outputs = {k: _run(args, OPENBLAS_CORETYPE=k) for k in KERNELS}
    assert len(set(outputs.values())) == 1, {
        k: hashlib.sha256(out.encode()).hexdigest()[:8] for k, out in outputs.items()
    }


needs_kernels = pytest.mark.skipif(
    len(KERNELS) < 2, reason="needs a DYNAMIC_ARCH OpenBLAS and a CPU with AVX2"
)


@needs_kernels
def test_downstream_bytes_do_not_depend_on_blas_kernel():
    _one_output_per_kernel(["-m", "hierdp.cli", "downstream", "--blocks",
                            "500,200,100,50,7,3,1,900,20,11", "--eps-total", "0.5",
                            "--replicates", "2000"])


@needs_kernels
@pytest.mark.parametrize("program", [["--eps-total", "2"], ["--tau", "50000"]])
def test_allocation_bytes_do_not_depend_on_blas_kernel(noisy_prior, program):
    _one_output_per_kernel(["-m", "hierdp.cli", "allocate", "--synth", "--prior",
                            str(noisy_prior), *program])


@pytest.mark.skipif(not _simd_features().get("X86_V4"),
                    reason="needs numpy dispatching X86_V4 (AVX-512)")
@pytest.mark.xfail(strict=True, reason="ROADMAP item 8: numpy's exp, log1p, log "
                   "and ** change their last bits without the X86_V4 kernels")
def test_release_bytes_do_not_depend_on_numpy_simd_dispatch(tmp_path):
    # sort, cumsum, sum and division keep their bytes without AVX-512;
    # the noise transform's transcendental functions do not
    def release(out, **env):
        _run(["-m", "hierdp.cli", "release", "--synth", "--hier",
              "--eps-total", "2", "--out-dir", str(tmp_path / out)], **env)
        return (tmp_path / out / "release.csv").read_bytes()

    assert release("avx512") == release(
        "no_avx512", NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
