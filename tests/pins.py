"""SHA-256 pins of output bytes, one per numpy dispatch level.

Where the CPU has them, numpy runs float64 exp, log, log1p, expm1 and
power in AVX-512 loops (level X86_V4); with those loops off, as under
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR", it runs AVX2
loops (X86_V3), whose last bits differ.  A pinned test keeps one pin per
level and compares against the one for the level numpy reports at run
time; a level with no pin fails the test.
"""


def dispatch_level() -> str:
    """The loops numpy runs float64 exp in, such as "X86_V4"."""
    from numpy.lib.introspect import opt_func_info  # numpy >= 2.0

    return opt_func_info(func_name="^exp$", signature="float64")["exp"]["dd"]["current"]


def pin(pins: dict):
    """pins[level] for this process's dispatch level."""
    level = dispatch_level()
    assert level in pins, f"no pin recorded for numpy's {level} loops"
    return pins[level]
