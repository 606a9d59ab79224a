"""Seeded inputs of the benchmark workloads.

Every generator takes the workload seed and returns plain data: JSON graph
documents (as dicts, in the format ``artifact`` reads) and energy lists.  The
program under test sees only the documents written from these dicts; nothing
here calls into ``artifact``.  The same seed always gives byte-identical
documents.
"""
from __future__ import annotations

import itertools
import json

import numpy as np

RING_FIXTURE = "src/artifact/fixtures/ring.json"

SWEEP_SMALL_POINTS = 500
SWEEP_SMALL_EMAX = 400.0

CHAIN_JUNCTIONS = 200
CHAIN_ENERGIES = 10
# Delta strengths in [-1, 1] at energies in [20, 400] keep the localization
# length well above the chain length, so the 2x2 transfer-matrix reference
# stays accurate to ~1e-13.
CHAIN_STRENGTH = 1.0
CHAIN_E_RANGE = (20.0, 400.0)

SPECTRUM_RING_EMAX = 400.0
# The ring's window is scanned as this many commands of equal width in k, so
# each command takes about as long as the interval pair's scan.  The tile
# edges stay far from the eigenvalues (j pi)^2.
SPECTRUM_RING_TILES = 3
# Two Dirichlet intervals whose eigenvalues (j pi / a)^2 nearly coincide; the
# relative split 1e-4 is what the grid scan fails to resolve.
PAIR_LENGTHS = (1.0, 1.0 + 1e-4)
PAIR_WINDOW = (1.0, 100.0)

# Every shape of the two-cluster graphs: left externals, right externals,
# bridge edges, tadpole on the left vertex.
CLUSTER_SHAPES = tuple(itertools.product((1, 2), (0, 1, 2), (1, 2), (False, True)))
CLUSTER_ENERGIES = 5
CLUSTER_E_RANGE = (0.3, 12.0)


def dumps(doc: dict) -> str:
    """Canonical JSON text of a document (floats round-trip exactly)."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary: QR of a complex Gaussian, phases fixed."""
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * np.sqrt(0.5)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _matrix_entry(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def haar_bc(n: int, rng: np.random.Generator) -> dict:
    """A ``matrix`` coupling ``A = I - U``, ``B = i (U + I)`` with Haar ``U``."""
    u = haar_unitary(n, rng)
    eye = np.eye(n)
    return {"kind": "matrix", "A": _matrix_entry(eye - u),
            "B": _matrix_entry(1j * (u + eye))}


def sweep_small_window(seed: int) -> tuple:
    """``(emin, emax, points)`` of the ring sweep; only ``emin`` depends on the seed."""
    rng = np.random.default_rng([seed, 1])
    return float(rng.uniform(0.5, 0.6)), SWEEP_SMALL_EMAX, SWEEP_SMALL_POINTS


def k_grid(emin: float, emax: float, points: int) -> np.ndarray:
    """Energies uniform in ``k = sqrt(E)``, as ``artifact sweep`` lays them out."""
    ks = np.linspace(np.sqrt(emin), np.sqrt(emax), points)
    return ks * ks


def chain_parameters(seed: int, junctions: int = CHAIN_JUNCTIONS):
    """Lengths of the ``junctions - 1`` inner edges and the delta strengths."""
    rng = np.random.default_rng([seed, 2])
    lengths = rng.uniform(0.5, 1.5, junctions - 1)
    strengths = rng.uniform(-CHAIN_STRENGTH, CHAIN_STRENGTH, junctions)
    return lengths, strengths


def chain_document(lengths, strengths) -> dict:
    """External ``l`` - delta - e0 - delta - ... - delta - external ``r``.

    Each junction lists its left line first, so channel 1 of the delta
    coupling is on the left.
    """
    count = len(strengths)
    internals = [{"id": f"e{j}", "length": float(a)} for j, a in enumerate(lengths)]
    vertices = []
    for j, c in enumerate(strengths):
        left = "ext:l" if j == 0 else f"int:e{j - 1}:a"
        right = "ext:r" if j == count - 1 else f"int:e{j}:0"
        vertices.append({"endpoints": [left, right],
                         "bc": {"kind": "delta", "strength": float(c)}})
    return {"metadata": {"title": f"chain of {count} delta junctions"},
            "externals": ["l", "r"], "internals": internals, "vertices": vertices}


def chain_energies(seed: int, count: int = CHAIN_ENERGIES) -> list:
    rng = np.random.default_rng([seed, 3])
    lo, hi = np.sqrt(CHAIN_E_RANGE[0]), np.sqrt(CHAIN_E_RANGE[1])
    return [float(k * k) for k in rng.uniform(lo, hi, count)]


def spectrum_ring_windows(seed: int) -> list:
    """Windows ``(lo, hi]`` tiling ``(e0, 400]``, equal in width in ``k``;
    ``e0`` in [0.5, 0.6) depends on the seed."""
    rng = np.random.default_rng([seed, 4])
    edges = np.linspace(np.sqrt(rng.uniform(0.5, 0.6)), np.sqrt(SPECTRUM_RING_EMAX),
                        SPECTRUM_RING_TILES + 1) ** 2
    edges[-1] = SPECTRUM_RING_EMAX
    return [(float(lo), float(hi)) for lo, hi in zip(edges[:-1], edges[1:])]


def pair_document() -> dict:
    """Two disjoint Dirichlet intervals of lengths 1 and 1 + 1e-4."""
    internals = [{"id": f"i{j}", "length": a} for j, a in enumerate(PAIR_LENGTHS)]
    vertices = [{"endpoints": [f"int:i{j}:{end}"], "bc": {"kind": "dirichlet"}}
                for j in range(len(PAIR_LENGTHS)) for end in ("0", "a")]
    return {"metadata": {"title": "Dirichlet intervals of lengths 1 and 1+1e-4"},
            "externals": [], "internals": internals, "vertices": vertices}


def cluster_document(shape, rng: np.random.Generator):
    """Two random couplings joined by bridge edges, shaped like the selftest's
    random graphs.  Returns ``(document, bridge_ids)``."""
    n_left, n_right, bridges, tadpole = shape
    externals = [f"l{i}" for i in range(n_left)] + [f"r{i}" for i in range(n_right)]
    internals = [{"id": f"b{i}", "length": float(rng.uniform(0.2, 3.0))}
                 for i in range(bridges)]
    left = [f"ext:l{i}" for i in range(n_left)] + [f"int:b{i}:0" for i in range(bridges)]
    if tadpole:
        internals.append({"id": "t0", "length": float(rng.uniform(0.2, 3.0))})
        left += ["int:t0:0", "int:t0:a"]
    right = [f"ext:r{i}" for i in range(n_right)] + [f"int:b{i}:a" for i in range(bridges)]
    vertices = [{"endpoints": left, "bc": haar_bc(len(left), rng)},
                {"endpoints": right, "bc": haar_bc(len(right), rng)}]
    doc = {"metadata": {"title": "random two-cluster graph"},
           "externals": externals, "internals": internals, "vertices": vertices}
    return doc, [f"b{i}" for i in range(bridges)]


def cluster_cases(seed: int) -> list:
    """``(document, bridge_ids, energies)`` for every shape in ``CLUSTER_SHAPES``."""
    rng = np.random.default_rng([seed, 5])
    cases = []
    for shape in CLUSTER_SHAPES:
        doc, bridges = cluster_document(shape, rng)
        energies = [float(e) for e in rng.uniform(*CLUSTER_E_RANGE, CLUSTER_ENERGIES)]
        cases.append((doc, bridges, energies))
    return cases
