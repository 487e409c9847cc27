import math
from dataclasses import replace

import pytest

from ptlattice import HoppingSet, ModelSpec, PerturbationTerm


def gain_chain(L: int, t: float = 1.0, g: float = 1.0) -> ModelSpec:
    """Open chain with a single imaginary gain ig at site 1."""
    return ModelSpec.from_json_dict(
        {
            "L": L,
            "boundary": "open",
            "hoppings": [{"range": 1, "re": t, "im": 0.0}],
            "flux_theta": 0.0,
            "perturbations": [{"i": 1, "j": 1, "re": 0.0, "im": g}],
        }
    )


def flux_ring(L: int, theta: float, g: float, phi: float = math.pi / 2,
              t: float = 1.0) -> ModelSpec:
    """Periodic chain with flux theta per bond and boundary potential
    g e^{i phi}|1><1| + g e^{-i phi}|L><L|."""
    return ModelSpec.from_json_dict(
        {
            "L": L,
            "boundary": "periodic",
            "hoppings": [{"range": 1, "re": t, "im": 0.0}],
            "flux_theta": theta,
            "perturbations": [
                {"i": 1, "j": 1, "re": g * math.cos(phi), "im": g * math.sin(phi)},
                {"i": L, "j": L, "re": g * math.cos(phi), "im": -g * math.sin(phi)},
            ],
        }
    )


def nnn_chain(L: int, t1: float, t2: float, g: float) -> ModelSpec:
    """Open chain with first- and second-neighbor hopping and balanced
    gain/loss ig(|1><1| - |L><L|)."""
    hoppings = [{"range": 1, "re": t1, "im": 0.0}]
    if t2 != 0:
        hoppings.append({"range": 2, "re": t2, "im": 0.0})
    return ModelSpec.from_json_dict(
        {
            "L": L,
            "boundary": "open",
            "hoppings": hoppings,
            "flux_theta": 0.0,
            "perturbations": [
                {"i": 1, "j": 1, "re": 0.0, "im": g},
                {"i": L, "j": L, "re": 0.0, "im": -g},
            ],
        }
    )


def not_rings() -> dict[str, tuple[ModelSpec, str]]:
    """Models the flux-ring theory rejects, by id, with a pattern of the
    reason it gives."""
    ring = flux_ring(24, 0.4, 0.8)
    return {
        "open_nnn_chain": (nnn_chain(40, 1.0, 0.5, 0.5), "periodic chain"),
        "gain_at_site_1_only": (
            replace(ring, perturbations=ring.perturbations[:1]),
            "perturbations",
        ),
        "t2_ring": (
            replace(ring, hoppings=HoppingSet(((1, 1.0), (2, 0.5)))),
            "one range-1 hopping",
        ),
        "complex_t": (
            replace(ring, hoppings=HoppingSet(((1, 1.0 + 0.5j),))),
            "real, positive hopping",
        ),
        "ends_not_conjugate": (
            replace(
                ring,
                perturbations=(PerturbationTerm(1, 1, 0.8j), PerturbationTerm(24, 24, -0.7j)),
            ),
            "exact conjugate",
        ),
    }


@pytest.fixture
def gain_chain_factory():
    return gain_chain


@pytest.fixture
def flux_ring_factory():
    return flux_ring


@pytest.fixture
def nnn_chain_factory():
    return nnn_chain
