import math
from dataclasses import replace

import numpy as np
import pytest

from ptlattice import Boundary, HoppingSet, ModelSpec, PerturbationTerm


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


def random_model(seed: int) -> ModelSpec:
    """A seeded random chain: open or periodic, complex hoppings of every
    range 1..M (M = 1..3), a flux in [0, 2pi) on either boundary, L from
    2M + 1 to 40, and 0-4 complex terms |i><j| with i on one of the 2M
    boundary sites and j anywhere, so clean chains and rings occur too."""
    rng = np.random.default_rng(seed)
    M = int(rng.integers(1, 4))
    L = int(rng.integers(2 * M + 1, 41))
    edges = [*range(1, M + 1), *range(L - M + 1, L + 1)]
    return ModelSpec(
        L=L,
        boundary=Boundary.PERIODIC if rng.random() < 0.5 else Boundary.OPEN,
        hoppings=HoppingSet(
            tuple((n, complex(*rng.normal(size=2))) for n in range(1, M + 1))
        ),
        flux_theta=rng.uniform(0.0, 2.0 * math.pi),
        perturbations=tuple(
            PerturbationTerm(
                int(rng.choice(edges)), int(rng.integers(1, L + 1)), complex(*rng.normal(size=2))
            )
            for _ in range(rng.integers(0, 5))
        ),
    )


def pt_variant(spec: ModelSpec) -> ModelSpec:
    """spec with each perturbation's conjugate added at the mirrored sites
    (L+1-i, L+1-j): PT-symmetric under site inversion up to the rounding
    of entries that several terms add to."""
    L = spec.L
    mirrored = tuple(
        PerturbationTerm(L + 1 - p.site_i, L + 1 - p.site_j, p.amplitude.conjugate())
        for p in spec.perturbations
    )
    return replace(spec, perturbations=spec.perturbations + mirrored)


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
