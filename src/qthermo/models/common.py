"""Shared pieces for the model builders."""

import warnings

import numpy as np

# Single-fermion-mode operators in the (|0>, |1>) basis.
LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
RAISE = LOWER.conj().T
NUMBER = RAISE @ LOWER
IDENT2 = np.eye(2, dtype=complex)
# Jordan-Wigner parity string for fermionic modes.
PARITY = np.diag([1.0, -1.0]).astype(complex)


class ValidityWarning(UserWarning):
    """A weak-coupling / secular / local validity margin is exceeded.

    The master equation is still constructed; users may deliberately
    explore its breakdown.
    """


def warn_margin(condition_text, value, scale, margin):
    """Warn when value > margin * scale.

    Called from a params dataclass's ``__post_init__``; stacklevel 4 skips
    this function, ``__post_init__`` and the generated ``__init__``, so the
    warning names the line that built the params.
    """
    if value > margin * scale:
        warnings.warn(
            f"{condition_text}: {value:.3g} exceeds {margin} * {scale:.3g}; "
            "the master equation may not be a faithful description",
            ValidityWarning, stacklevel=4)
