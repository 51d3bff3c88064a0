"""Shared pieces for the model builders, and the sweep axis over them."""

import warnings
from dataclasses import replace

import numpy as np

from ..lindblad import GKLSGenerator, JumpChannel, ThermoLedger
from ..qcore import dagger
from ..thermo import ReservoirSpec

# Single-fermion-mode operators in the (|0>, |1>) basis.
LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
RAISE = dagger(LOWER)
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


def thermal_pair(op, kappa, occupation, tag, omega, n):
    """Channels (L, kappa (1 - nbar)) and (L†, kappa nbar) that exchange
    energy omega and n particles with reservoir ``tag``; with nbar its
    occupation at omega, the pair obeys local detailed balance. ``kappa``
    and ``occupation`` may be columns of a sweep; ``op`` is shared."""
    return (JumpChannel(op, kappa * (1.0 - occupation), tag, omega, n),
            JumpChannel(dagger(op), kappa * occupation, tag, -omega, -n))


def stack_sweep(machines):
    """One (generator, ledger) pair with a leading sweep axis of n points.

    ``machines`` are the n per-point (generator, ledger) pairs of one
    model builder, which must agree in the channels' operators (bitwise),
    reservoirs and particle quanta and in the reservoir tags and
    statistics. Everything else is stacked along a new first axis.
    """
    gens, ledgers = zip(*machines)

    def structure(gen, ledger):
        return ([(c.operator.tobytes(), c.reservoir, c.particle_quantum)
                 for c in gen.channels],
                {t: r.statistics for t, r in ledger.reservoirs.items()})

    first = structure(gens[0], ledgers[0])
    if any(structure(*m) != first for m in zip(gens, ledgers)):
        raise ValueError("sweep points differ in their channels or reservoirs")
    channels = tuple(replace(
        column[0], rate=np.array([c.rate for c in column]),
        energy_quantum=np.array([c.energy_quantum for c in column],
                                dtype=float))
        for column in zip(*(g.channels for g in gens)))
    reservoirs = {tag: ReservoirSpec(
        *(np.array([getattr(l.reservoirs[tag], name) for l in ledgers])
          for name in ("temperature", "chemical_potential")),
        spec.statistics, np.array([l.reservoirs[tag].coupling for l in ledgers]))
        for tag, spec in ledgers[0].reservoirs.items()}
    return (GKLSGenerator(np.stack([g.hamiltonian for g in gens]), channels),
            ThermoLedger(np.stack([l.h_td for l in ledgers]),
                         np.stack([l.n_s for l in ledgers]), reservoirs))
