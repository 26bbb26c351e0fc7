"""Host and library facts recorded with every run, and BLAS thread control.

numpy and scipy each ship their own OpenBLAS (``libscipy_openblas64_`` and
``libscipy_openblas``), each with its own thread pool.  Both are found among
the libraries the process has loaded and driven through ctypes; nothing
here changes a thread count unless asked to.
"""

from __future__ import annotations

import ctypes
import os
import platform

# (get threads, set threads, core name) entry points of the 64-bit-integer
# (numpy) and 32-bit (scipy) builds
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_",
     "scipy_openblas_get_corename64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads",
     "scipy_openblas_get_corename"),
)

THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class OpenBlas:
    """One loaded OpenBLAS copy with its get/set thread-count entry points."""

    def __init__(self, owner, path, lib, get_name, set_name, core_name):
        self.owner = owner
        self.path = path
        self.symbol = get_name
        corename = getattr(lib, core_name)
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        # the kernel set OpenBLAS picked for this CPU; results differ across them
        self.core = corename().decode()
        self._get = getattr(lib, get_name)
        self._get.argtypes = []
        self._get.restype = ctypes.c_int
        self._set = getattr(lib, set_name)
        self._set.argtypes = [ctypes.c_int]
        self._set.restype = None

    @property
    def threads(self):
        return int(self._get())

    def set_threads(self, n):
        self._set(int(n))


def _loaded_openblas_paths():
    paths = []
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.rstrip("\n").split(" ")[-1]
                if "openblas" in os.path.basename(path) and path not in paths:
                    paths.append(path)
    except OSError:
        pass
    return paths


def find_openblas():
    """{"numpy": OpenBlas, "scipy": OpenBlas} for the copies loaded now.

    Call after numpy and scipy.linalg are imported.  A copy that cannot be
    found or has none of the known entry points is left out.
    """
    found = {}
    for path in _loaded_openblas_paths():
        owner = "numpy" if "numpy" in path else "scipy" if "scipy" in path else None
        if owner is None or owner in found:
            continue
        lib = ctypes.CDLL(path)
        for names in _SYMBOLS:
            if all(hasattr(lib, name) for name in names):
                found[owner] = OpenBlas(owner, path, lib, *names)
                break
    return found


def thread_key(blas):
    """Reference-store key: the BLAS thread counts and OpenBLAS core type."""
    threads = [f"{owner}={blas[owner].threads if owner in blas else 'na'}"
               for owner in ("numpy", "scipy")]
    core = next((b.core for b in blas.values()), "na")
    return ",".join(threads + [f"core={core}"])


def _llc_bytes():
    for index in range(6, -1, -1):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        try:
            with open(f"{base}/level") as fh:
                if fh.read().strip() != "3":
                    continue
            with open(f"{base}/size") as fh:
                text = fh.read().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
        return int(text.rstrip("KMG")) * scale
    return None


def run_metadata(lolkit, blas):
    """Versions, BLAS copies and thread counts, and host facts."""
    import numpy
    import scipy

    llc = _llc_bytes()
    return {
        "versions": {
            "lolkit": getattr(lolkit, "__version__", None),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "blas": {
            owner: {"library": os.path.basename(b.path), "symbol": b.symbol,
                    "threads": b.threads, "core": b.core}
            for owner, b in blas.items()
        },
        "thread_env": {k: os.environ[k] for k in THREAD_ENV_VARS if k in os.environ},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "llc_mib": None if llc is None else llc / 1024**2,
        "machine": platform.machine(),
    }
