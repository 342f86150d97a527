"""Pytest plugin: run the native kernel loop built with ASan and UBSan.

Run from the repository root with the sanitizer runtime preloaded (the
interpreter itself is not instrumented, so the runtime must come first
in the process) and Python's allocator switched to ``malloc`` (so ASan
sees the buffers of lists and other objects the kernel indexes, which
pymalloc would hide in its own arenas):

    PYTHONMALLOC=malloc LD_PRELOAD=$(gcc -print-file-name=libasan.so) \\
        ASAN_OPTIONS=detect_leaks=0 PYTHONPATH=src python -m pytest \\
        -p tools.sanitized_kernel --capture=sys \\
        tests/core/test_native_kernel.py tests/core/test_kernel_fuzz.py ...

(``--capture=sys`` leaves the real stderr open, where an ASan report
goes before the process aborts.)

At configure time the plugin adds ``-fsanitize=address,undefined
-fno-sanitize-recover=undefined`` to :mod:`repro.core._native`'s build
flags and points its cache at a fresh temporary directory, so the
sanitized library neither prunes the normal build nor is pruned by it.
It then builds and loads that library.  The session fails unless the
sanitizer runtime is mapped and the sanitized library is the one
loaded, at the start and again at the end (tests that reload the
kernel restore it).  ``detect_leaks=0`` because the interpreter keeps
objects alive at exit by design; leaks under test are caught by
``tests/core/test_kernel_leaks.py`` instead.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Optional

import pytest

#: the flags added to the native build
SANITIZE_FLAGS = ("-fsanitize=address,undefined", "-fno-sanitize-recover=undefined")

_directory: Optional[str] = None


def _problem() -> Optional[str]:
    """Why the loaded kernel is not the sanitized build, or None."""
    from repro.core import _native

    with open("/proc/self/maps") as maps:
        if "libasan" not in maps.read():
            return "the ASan runtime is not loaded (set LD_PRELOAD)"
    if os.environ.get("PYTHONMALLOC") != "malloc":
        return "PYTHONMALLOC=malloc is not set: ASan cannot see object buffers"
    module = _native.kernel()
    if module is None:
        return "the sanitized native kernel did not build or load"
    if os.path.dirname(module.__file__) != _directory:
        return "the loaded native kernel %s is not the sanitized build" % (
            module.__file__
        )
    return None


def pytest_configure(config: pytest.Config) -> None:
    global _directory
    from repro.core import _native

    _directory = tempfile.mkdtemp(prefix="repro-sanitized-kernel-")
    _native._FLAGS = (*_native._FLAGS, *SANITIZE_FLAGS)
    _native._PYCACHE = _directory
    _native._lib = None
    problem = _problem()
    if problem is not None:
        raise pytest.UsageError(problem)


def pytest_report_header(config: pytest.Config) -> str:
    from repro.core import _native

    return "native kernel: sanitized build %s" % _native.kernel().__file__


def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    problem = _problem()
    if problem is not None:
        session.config.get_terminal_writer().line(
            "sanitized_kernel: %s" % problem, red=True
        )
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_unconfigure(config: pytest.Config) -> None:
    if _directory is not None:
        shutil.rmtree(_directory, ignore_errors=True)
