"""Constraint-aware actor with marginal-gain advantage estimation.

Training stack for submodular-reward, cost-constrained tasks: a recurrent
actor with reward/cost estimator heads, a homography-based semantic
dynamics model, a Lagrangian constraint loop, and a sampling safety layer,
all built on a small reverse-mode autodiff engine.

Importing the package sets one allocator policy for the process (see
:func:`_keep_heap_top`); it changes no computed value.
"""

import os

__version__ = "0.1.0"

# glibc's mallopt parameter and the padding the heap keeps at its top
M_TOP_PAD = -2
TOP_PAD = 64 << 20


def _keep_heap_top() -> None:
    """Have glibc keep ``TOP_PAD`` bytes of freed memory at the heap's top.

    Each training iteration's taped stages allocate and free several MB of
    arrays over 128 KiB (the trunk's weight gradients, the SDM warp's
    (T, 3, 256) temporaries).  By default glibc hands a freed heap top back
    to the kernel, so the next iteration faults every page in again: about
    23,900 minor faults over a second pass of 16 river seeds of 30 steps,
    some 30 an env step, and 3,800 over 11 cliff seeds of 100.  With the top
    kept they were about 110 and 100; a 16 MiB pad still left about 400 on
    the river.  The policy changes no computed value.  On another libc, or
    without ``ctypes``, nothing is set.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    if not libc.startswith("glibc"):
        return
    try:
        import ctypes
    except ImportError:
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_TOP_PAD, TOP_PAD)


_keep_heap_top()
