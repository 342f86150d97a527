"""Build and load the native event loop, ``_kernel.c``.

The compiled engine's kernel loop (:meth:`CompiledSimulator._advance
<repro.core.compiled.CompiledSimulator._advance>`) and DC sweep
(:meth:`CompiledNetlist.dc_update
<repro.core.compiled.CompiledNetlist.dc_update>`) have a C twin in
``_kernel.c``, shipped next to this module.  It runs over the same
Python objects as the Python loop, so nothing is copied in or out and
fault patches to the lowering are seen live.

:func:`kernel` builds the extension on first use with the system C
compiler and caches it under a name that hashes the source, the
compiler version, the interpreter's extension suffix and the flags:
in the package ``__pycache__``, or, when that is not writable, in a
directory of the temporary directory private to the user
(``repro-kernel-<uid>``, mode 0700).  A library is loaded from that
private directory only while the directory and the file belong to the
user and no one else can write to them, so another local user cannot
plant a library there.  The library is written under a temporary name
and moved into place, so concurrent worker processes never load a
partial file.  When the build or the load fails (no compiler, no Python
headers) one warning goes to the ``repro`` logger and the engines run
the Python loop, which stays the fallback and the parity reference.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import stat
import subprocess
import sysconfig
import tempfile
from types import ModuleType
from typing import Callable, Literal, Optional, Union

from ..circuit.logic import evaluate
from ..errors import SimulationLimitError, WaveformError
from ..obs.log import get_logger
from .engine import FilteredEventRecord

#: the C compiler and the flags bit-identity needs: no FMA contraction,
#: no fast-math (``-O2`` enables neither)
_COMPILER = "/usr/bin/gcc"
_FLAGS = ("-O2", "-ffp-contract=off", "-fno-strict-aliasing", "-fPIC", "-shared")
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
_PYCACHE = os.path.join(os.path.dirname(_SOURCE), "__pycache__")
_MODULE = "repro.core._kernel"

#: None until :func:`kernel` first runs, then the loaded module, or
#: False when it could not be built or loaded.
_lib: Union[None, Literal[False], ModuleType] = None


def kernel() -> Optional[ModuleType]:
    """The native kernel module, built on first use; None when it is
    unavailable (the engines then run the Python loop)."""
    global _lib
    if _lib is None:
        _lib = _load() or False
    return _lib or None


def cache_name(source: bytes, compiler_version: str) -> str:
    """File name of the library built from ``source`` by the compiler
    that reports ``compiler_version``."""
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]  # EXT_SUFFIX
    digest = hashlib.sha256()
    for part in (source, compiler_version.encode(), suffix.encode(),
                 " ".join(_FLAGS).encode()):
        digest.update(part)
        digest.update(b"\0")
    return "_kernel-%s%s" % (digest.hexdigest()[:16], suffix)


def _library_name() -> str:
    """File name of the library the current source and compiler build."""
    with open(_SOURCE, "rb") as handle:
        source = handle.read()
    version = subprocess.run(
        [_COMPILER, "--version"], capture_output=True, text=True, check=True
    ).stdout
    return cache_name(source, version)


def _cache_dir() -> str:
    """The package ``__pycache__`` when writable, else the private
    directory."""
    try:
        os.makedirs(_PYCACHE, exist_ok=True)
    except OSError:
        return _private_dir()
    return _PYCACHE if os.access(_PYCACHE, os.W_OK) else _private_dir()


def _private_dir() -> str:
    """``<tmp>/repro-kernel-<uid>``, made with mode 0700 when missing."""
    directory = os.path.join(
        tempfile.gettempdir(), "repro-kernel-%d" % os.getuid()
    )
    try:
        os.mkdir(directory, 0o700)
    except FileExistsError:
        pass
    _check_private(directory, stat.S_ISDIR)
    return directory


def _check_private(path: str, is_kind: Callable[[int], bool]) -> None:
    """Raise OSError unless ``path`` is itself (not a symlink) of the
    expected kind, owned by this user and writable by no one else."""
    info = os.lstat(path)
    if (not is_kind(info.st_mode) or info.st_uid != os.getuid()
            or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)):
        raise OSError(
            "%s is not private to this user (owner %d, mode %o)"
            % (path, info.st_uid, stat.S_IMODE(info.st_mode))
        )


def _build() -> str:
    """Path of the cached library, compiling it when it is missing."""
    name = _library_name()
    directory = _cache_dir()
    path = os.path.join(directory, name)
    if os.path.exists(path):
        if directory != _PYCACHE:
            _check_private(path, stat.S_ISREG)
        return path
    handle_fd, partial = tempfile.mkstemp(
        dir=directory, prefix="_kernel-", suffix=".partial"
    )
    os.close(handle_fd)
    try:
        subprocess.run(
            [_COMPILER, *_FLAGS, "-I", sysconfig.get_paths()["include"],
             _SOURCE, "-o", partial],
            capture_output=True, text=True, check=True,
        )
        # The linker's mode follows the umask, which may leave the file
        # group-writable; the private directory would then refuse it.
        os.chmod(partial, 0o755)
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return path


def _load() -> Optional[ModuleType]:
    try:
        path = _build()
        loader = importlib.machinery.ExtensionFileLoader(_MODULE, path)
        spec = importlib.util.spec_from_file_location(_MODULE, path, loader=loader)
        if spec is None:
            raise ImportError("no module spec for %s" % path)
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
    except subprocess.CalledProcessError as exc:
        get_logger().warning(
            "native kernel not built (%s exited %d: %s); the compiled "
            "engine runs its Python loop",
            exc.cmd[0], exc.returncode, (exc.stderr or "").strip()[-500:],
        )
        return None
    except (OSError, ImportError) as exc:
        get_logger().warning(
            "native kernel unavailable (%s); the compiled engine runs its "
            "Python loop", exc,
        )
        return None
    module.bind(SimulationLimitError, WaveformError, FilteredEventRecord, evaluate)
    return module
