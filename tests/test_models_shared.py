"""Cross-model invariants: the laws of thermodynamics at steady state."""

from qthermo.lindblad import (all_currents, entropy_production_rate,
                              steady_state)
from qthermo.models import (DoubleDotParams, FridgeParams, SingleDotParams,
                            double_dot_generator, fridge_generator,
                            single_dot_generator)
from qthermo.thermo import ReservoirSpec


def random_model_generator(rng, kind):
    if kind == "dot":
        return single_dot_generator(SingleDotParams(
            rng.uniform(0.5, 3.0),
            {"c": ReservoirSpec(rng.uniform(0.2, 0.8), rng.uniform(-1, 1),
                                "fermionic", rng.uniform(0.05, 0.5)),
             "h": ReservoirSpec(rng.uniform(0.9, 2.5), rng.uniform(-1, 1),
                                "fermionic", rng.uniform(0.05, 0.5))}))
    if kind == "dd_local":
        return double_dot_generator(DoubleDotParams(
            rng.uniform(0.5, 3.0), rng.uniform(0.02, 0.2),
            {"L": ReservoirSpec(rng.uniform(0.3, 1.5), rng.uniform(-1, 1),
                                "fermionic", rng.uniform(0.05, 0.4)),
             "R": ReservoirSpec(rng.uniform(0.3, 1.5), rng.uniform(-1, 1),
                                "fermionic", rng.uniform(0.05, 0.4))}))
    if kind == "dd_secular":
        return double_dot_generator(DoubleDotParams(
            rng.uniform(0.5, 3.0), rng.uniform(0.3, 0.8),
            {"L": ReservoirSpec(rng.uniform(0.3, 1.5), rng.uniform(-1, 1),
                                "fermionic", rng.uniform(0.01, 0.1)),
             "R": ReservoirSpec(rng.uniform(0.3, 1.5), rng.uniform(-1, 1),
                                "fermionic", rng.uniform(0.01, 0.1))},
            mode="secular"))
    t_c = rng.uniform(0.2, 0.8)
    t_r = t_c + rng.uniform(0.1, 1.0)
    t_h = t_r + rng.uniform(0.1, 2.0)
    return fridge_generator(FridgeParams(
        rng.uniform(0.2, 1.0), rng.uniform(0.5, 2.0), rng.uniform(0.01, 0.1),
        {"c": ReservoirSpec(t_c, 0.0, "bosonic", rng.uniform(0.01, 0.08)),
         "h": ReservoirSpec(t_h, 0.0, "bosonic", rng.uniform(0.01, 0.08)),
         "r": ReservoirSpec(t_r, 0.0, "bosonic", rng.uniform(0.01, 0.08))}))


def test_first_and_second_law_at_steady_state(rng):
    for kind in ("dot", "dd_local", "dd_secular", "fridge"):
        for _ in range(8):
            gen, ledger = random_model_generator(rng, kind)
            rho = steady_state(gen)
            cur = all_currents(gen, ledger, rho)
            total = sum(j + p for j, p in cur.values())
            scale = max(max(abs(j) + abs(p) for j, p in cur.values()), 1e-15)
            assert abs(total) <= 1e-8 * scale, kind
            sdot = entropy_production_rate(gen, ledger, rho)
            assert sdot >= -1e-9, kind
            flow = sum(j / ledger.reservoirs[a].temperature
                       for a, (j, _) in cur.items())
            assert flow >= -1e-9, kind
