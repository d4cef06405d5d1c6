import os
import subprocess
import sys

# The fingerprint pins hold bit-exact float arithmetic, and OpenBLAS picks
# its kernel from the CPU at run time, so the same code rounds differently
# on different CPUs. The pins are recorded under the Haswell kernel: it
# needs only AVX2, and OPENBLAS_CORETYPE=Zen selects it as well.
# They are also recorded at one OpenBLAS thread: a product large enough to
# be split across threads rounds differently under one thread than under
# two or more, and one thread is all a one-CPU machine has. OpenBLAS reads
# both variables once, when numpy is first imported.
os.environ.setdefault("OPENBLAS_CORETYPE", "Haswell")
os.environ["OPENBLAS_NUM_THREADS"] = "1"

# numpy also picks its own SIMD loops from the CPU when it loads, and its
# AVX-512 exp, expm1 and log loops round differently from its AVX2 ones,
# so the pins are recorded with the AVX-512 tiers disabled. The variable
# may name only features the installed numpy dispatches and this CPU
# supports: numpy warns at import about any other name, which fails a run
# under -W error. So a fresh interpreter, without the variable, reads both
# lists first; older numpy and CPUs without AVX-512 get fewer names, or
# none.
_SIMD_PROBE = """
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
print(" ".join(name for name in __cpu_dispatch__
               if __cpu_features__.get(name)
               and (name == "X86_V4" or name.startswith("AVX512"))))
"""
os.environ["NPY_DISABLE_CPU_FEATURES"] = subprocess.run(
    [sys.executable, "-c", _SIMD_PROBE], capture_output=True, text=True,
    check=True, env={k: v for k, v in os.environ.items()
                     if k != "NPY_DISABLE_CPU_FEATURES"}).stdout.strip()

import numpy as np
import pytest

from rmsalab.config import RunConfig
from rmsalab.topology import Topology, Link

TRIANGLE_TEXT = """\
nodes 3
link 0 0 1 100
link 1 1 2 100
link 2 0 2 100
"""


@pytest.fixture
def triangle():
    return Topology(3, [Link(0, 0, 1, 100.0), Link(1, 1, 2, 100.0),
                        Link(2, 0, 2, 100.0)], slot_count=100)


@pytest.fixture
def line():
    # 3 nodes in a row, 2 links, small grid for hand-checked block tests
    return Topology(3, [Link(0, 0, 1, 100.0), Link(1, 1, 2, 100.0)],
                    slot_count=10)


@pytest.fixture(scope="session")
def nsfnet_network():
    """The default config's (topology, candidate-path table)."""
    return RunConfig().network()


@pytest.fixture(scope="session")
def nsfnet(nsfnet_network):
    return nsfnet_network[0]


@pytest.fixture(scope="session")
def nsfnet_paths(nsfnet_network):
    return nsfnet_network[1]


def _set_grid(spectrum, occupied, free=()):
    """Seed ``spectrum``'s grid: every link gets ``occupied`` (a bool, one
    row of slots, or a links x slots mask), then the ``free`` slots are
    freed on every link."""
    grid = np.zeros((spectrum.topology.link_count, spectrum.slot_count),
                    dtype=bool)
    grid[:] = occupied
    grid[:, list(free)] = False
    spectrum._links[:] = [sum(1 << int(s) for s in np.flatnonzero(row))
                          for row in grid]


@pytest.fixture(scope="session")
def set_grid():
    """The one way tests write a spectrum grid directly."""
    return _set_grid


def _replaced(key, change):
    """Writes the saved arrays with ``key``'s made from the saved one."""
    return lambda path, arrays, raw: np.savez(
        path, **{**arrays, key: change(arrays[key])})


# ways a checkpoint file can be wrong: how a damaged copy is written from
# the saved arrays and file bytes, and what the load error must name
CHECKPOINT_DAMAGE = {
    "short-flat": (_replaced("flat", lambda saved: saved[:1]), "flat"),
    "short-adam-v": (_replaced("adam_v", lambda saved: saved[:-1]),
                     "adam_v"),
    "version-1": (_replaced("version", lambda saved: np.array(1)),
                  "version 1"),
    "no-flat": (lambda path, arrays, raw: np.savez(
        path, **{k: v for k, v in arrays.items() if k != "flat"}), "flat"),
    "truncated": (lambda path, arrays, raw: path.write_bytes(
        raw[:len(raw) // 2]), "not a zip file"),
}


@pytest.fixture
def damaged_checkpoints(tmp_path):
    """Writes damaged copies of a checkpoint file, one per kind of damage,
    and returns (copy path, what its load error names) pairs."""
    def damage(src):
        raw = src.read_bytes()
        with np.load(src) as data:
            arrays = dict(data)
        copies = []
        for name, (write, named) in CHECKPOINT_DAMAGE.items():
            path = tmp_path / f"damaged-{name}.npz"
            write(path, arrays, raw)
            copies.append((path, named))
        return copies
    return damage
