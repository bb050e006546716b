"""A ratchet on the golden files whose bytes depend on the CPU path.

test_golden.py pins the hashes that the default path of an x86-64 CPU
with AVX-512 writes.  Other paths round differently: OpenBLAS kernels
sum `ddot` and `dgemm` in another order (OPENBLAS_CORETYPE), numpy's
AVX2 and AVX-512 loops give other bits for `exp`, `log` and `arctan2`
(NPY_DISABLE_CPU_FEATURES), and glibc's FMA variants do the same for
`math.*` (GLIBC_TUNABLES).  Each setting below runs both golden
pipelines in a fresh interpreter, as test_golden.py does, and the set of
files whose hash differs from GOLDEN/QUICKSTART must equal the pinned
set: a file that starts to differ fails the test, and one that stops
differing must leave the table.  Under Prescott it is not only rounding:
some vertices change side of the visibility test, and one fixation moves
into another pose bucket.

A setting is skipped where it cannot apply: a CPU that is not x86-64 or
has no AVX-512 (its default path is not the pinned one), a numpy whose
BLAS is not OpenBLAS, or a C library that is not glibc.
"""
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
import test_golden

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:                                     # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

GOLDEN_FILES = {**test_golden.GOLDEN, **test_golden.QUICKSTART}
ENV_KEYS = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES", "GLIBC_TUNABLES")
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
GLIBC_MASK = "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F"

BUCKETS = ("-1_6_-6_a2_e2", "-2_6_-6_a2_e2", "0_6_-6_a3_e2", "1_6_-6_a3_e2")
# the maps and the scores built from them: numpy's loops move these
MAPS = {"base/curvature.csv", "fdm/fdm.csv", "pred/f083d8a1641b.csv",
        "pred/f083d8a1641b.ply", "report/report.csv", "report/report.json",
        *(f"gt/{b}.csv" for b in BUCKETS), *(f"scores/{b}.csv" for b in BUCKETS)}
# OpenBLAS's Haswell kernels move the recordings' rays too
HASWELL = MAPS | {"base/curvature.ply", "fdm/fdm.ply", "fix/s00.csv",
                  "fix/s01.csv", "rec/s00.csv", "rec/s01.csv",
                  "rec/targets.json", "stats/bias.json", "stats/saccade.json"}
# Prescott's move a visibility test and a pose bucket as well
PRESCOTT = HASWELL | {"fdm/fdm.meta.json", "fix/summary.json",
                      "gt/1_6_-6_a3_e2.vis.csv", "gt/gt_meta.json",
                      "gt/weights.json", "stats/direction_dependence.json"}

# setting -> (environment, what it needs, the golden files that differ)
PINNED = {
    "openblas-haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, {"openblas"},
                         HASWELL),
    "openblas-prescott": ({"OPENBLAS_CORETYPE": "Prescott"}, {"openblas"},
                          PRESCOTT),
    "numpy-no-x86-v4": ({"NPY_DISABLE_CPU_FEATURES": NO_AVX512}, set(),
                        MAPS),
    "numpy-no-x86-v3": ({"NPY_DISABLE_CPU_FEATURES": "X86_V3 " + NO_AVX512},
                        set(), MAPS),
    "glibc-no-fma": ({"GLIBC_TUNABLES": GLIBC_MASK}, {"glibc"},
                     {"rec/s01.csv"}),
    "all-three": ({"OPENBLAS_CORETYPE": "Prescott",
                   "NPY_DISABLE_CPU_FEATURES": "X86_V3 " + NO_AVX512,
                   "GLIBC_TUNABLES": GLIBC_MASK}, {"openblas", "glibc"},
                  PRESCOTT),
}


def _missing(needs):
    """Why a setting cannot apply on this machine, or None."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"the CPU is {platform.machine()}, not x86-64"
    if not __cpu_features__.get("AVX512_SKX"):
        return "the CPU has no AVX-512, so its default path is not the pinned one"
    blas = (getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
            .get("blas", {}).get("name", ""))
    if "openblas" in needs and "openblas" not in blas:
        return f"numpy's BLAS is {blas or 'unknown'}, not OpenBLAS"
    if "glibc" in needs and platform.libc_ver()[0] != "glibc":
        return "the C library is not glibc"
    return None


@pytest.mark.parametrize("setting", sorted(PINNED))
def test_golden_files_that_differ_stay_pinned(setting, tmp_path):
    env_setting, needs, pinned = PINNED[setting]
    reason = _missing(needs)
    if reason:
        pytest.skip(reason)
    env = {k: v for k, v in os.environ.items() if k not in ENV_KEYS}
    env.update(env_setting, PYTHONPATH=test_golden.SRC)
    subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c",
                    test_golden.SCRIPT.format(tests=test_golden.TESTS,
                                              root=str(tmp_path))],
                   env=env, check=True, timeout=300)
    written = {**{k: v for k, v in test_golden._hashes(tmp_path).items()
                  if k.split("/")[0] in test_golden.RECORDED},
               **test_golden._hashes(tmp_path / "out")}
    differ = {name for name in GOLDEN_FILES.keys() | written.keys()
              if written.get(name) != GOLDEN_FILES.get(name)}
    assert sorted(differ) == sorted(pinned)
