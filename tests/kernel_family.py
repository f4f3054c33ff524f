"""The OpenBLAS kernel family of this process, and the lookup of the pins
recorded per family.

OpenBLAS built with ``DYNAMIC_ARCH`` picks its kernels from the CPU at run
time, or from ``OPENBLAS_CORETYPE``. The families round some BLAS sums
differently (the gradient's reverse pass and the correlation start's Gram
products), so a solve pinned bit for bit gives other last bits on another
family, with the same counts. The tests that pin such solves keep one set
of hex values per family, read this process's family here, and run on one
BLAS thread, since a sum split over more threads can round differently too.

Run as a script, it prints the family, the OpenBLAS config string and the
NumPy version:

    python tests/kernel_family.py
"""

import contextlib
import ctypes
import functools

import numpy as np
import pytest

# The prefix and suffix of the OpenBLAS symbols, as scipy-openblas, NumPy's
# own 64-bit build and a plain OpenBLAS export them.
_FLAVOURS = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))
# The OpenBLAS functions called here, by the stem of their symbol, with
# their argument and result types.
_FUNCTIONS = {
    "get_corename": ([], ctypes.c_char_p),
    "get_config": ([], ctypes.c_char_p),
    "get_num_threads": ([], ctypes.c_int),
    "set_num_threads": ([ctypes.c_int], None),
}


@functools.cache
def _library() -> dict | None:
    """The functions of :data:`_FUNCTIONS` in the OpenBLAS loaded with NumPy,
    or None when no loaded library exports them. NumPy's own copy comes
    first where SciPy has loaded another."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs, key=lambda lib: ("numpy" not in lib, lib)):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in _FLAVOURS:
            if hasattr(handle, f"{prefix}get_corename{suffix}"):
                functions = {}
                for stem, (argtypes, restype) in _FUNCTIONS.items():
                    fn = getattr(handle, f"{prefix}{stem}{suffix}")
                    fn.argtypes, fn.restype = argtypes, restype
                    functions[stem] = fn
                return functions
    return None


def openblas_core() -> tuple[str, str]:
    """The core name and config string of the OpenBLAS loaded with NumPy,
    such as ``("SkylakeX", "OpenBLAS 0.3.31.188.0 ... SkylakeX MAX_THREADS=64")``,
    or ``("unknown", "unknown")`` when no loaded library reports them."""
    functions = _library()
    if functions is None:
        return "unknown", "unknown"
    return functions["get_corename"]().decode(), functions["get_config"]().decode()


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread, as the pins were recorded, and
    restore the thread count after it."""
    functions = _library()
    if functions is None:
        yield
        return
    before = functions["get_num_threads"]()
    functions["set_num_threads"](1)
    try:
        yield
    finally:
        functions["set_num_threads"](before)


def recorded(table: dict, key, got):
    """The pins that ``table``, a dict of kernel family to a dict of key to
    pins, holds under ``key`` for this process's family.

    A family with no recorded set fails the calling test, with the family,
    the config string and ``got``, the values this run gave, in the message:
    there is no skip, and no other family's set is used.
    """
    core, config = openblas_core()
    if core not in table:
        pytest.fail(
            f"no pins recorded for OpenBLAS kernel family {core!r} ({config}); "
            f"this run gave {key!r}: {got!r}"
        )
    return table[core][key]


if __name__ == "__main__":
    core, config = openblas_core()
    print(f"OpenBLAS kernel family: {core} ({config}; NumPy {np.__version__})")
