"""The bundled self-test: closed forms, identities and seeded property checks.

Each check takes one shared ``numpy.random.Generator`` and returns
``(ok, detail)``; :func:`run_checks` runs them in order from one seed.
"""
from __future__ import annotations

import json
from importlib import resources

import numpy as np

from . import boundary, numkernel, scattering, starprod
from . import graph as graphmod
from .document import GraphDocument, loads_document
from .graph import MetricGraph, Vertex, ext_ref, int_ref


_FIXTURES = resources.files("artifact") / "fixtures"


def _fixture(name: str) -> GraphDocument:
    return loads_document((_FIXTURES / name).read_text("utf-8"))


def _fixture_gbc(name: str):
    return graphmod.assemble(_fixture(name).to_graph())


def _check_three_star(rng):
    gbc = _fixture_gbc("kirchhoff_star.json")
    target = 2.0 / 3.0 * np.ones((3, 3)) - np.eye(3)
    worst = max(float(np.abs(scattering.solve_scattering(gbc, e).s - target).max())
                for e in (0.5, 1.0, 2.0, 10.0))
    return worst < 1e-12, f"max deviation {worst:.3e}"


def _check_free_junction(rng):
    gbc = _fixture_gbc("free_two_line.json")
    target = np.array([[0.0, 1.0], [1.0, 0.0]])
    worst = max(float(np.abs(scattering.solve_scattering(gbc, e).s - target).max())
                for e in (0.3, 2.0, 40.0))
    return worst < 1e-12, f"max deviation {worst:.3e}"


def _check_robin_delta(rng):
    gbc = _fixture_gbc("robin_delta.json")
    phi, c = np.pi / 4.0, 1.0
    worst = 0.0
    for e in (0.5, 2.0, 10.0):
        k = np.sqrt(e)
        res = scattering.solve_scattering(gbc, e)
        # independent route: eliminate by hand from the three endpoint relations
        q = np.exp(1j * k)
        rows = np.array([
            [0.0, np.sin(phi) + 1j * k * np.cos(phi),
             np.sin(phi) - 1j * k * np.cos(phi)],
            [1.0, -q, -1.0 / q],
            [1j * k, -1j * k * q - c * q, 1j * k / q - c / q],
        ], dtype=complex)
        rhs = np.array([0.0, -1.0, 1j * k], dtype=complex)
        s, alpha, beta = np.linalg.solve(rows, rhs)
        worst = max(worst,
                    abs(res.s[0, 0] - s),
                    abs(res.alpha[0, 0] - alpha),
                    abs(res.beta[0, 0] - beta))
    return worst < 1e-10, f"max deviation vs direct elimination {worst:.3e}"


def _check_ring(rng):
    gbc = _fixture_gbc("ring.json")
    worst = 0.0
    for e in (0.5, 2.0, 11.0, 30.0, 47.0):
        k = np.sqrt(e)
        q2 = np.exp(2j * k)
        target = -np.array([[3.0 * (q2 - 1.0), 8.0 * np.exp(1j * k)],
                            [8.0 * np.exp(1j * k), 3.0 * (q2 - 1.0)]]) / (q2 - 9.0)
        s = scattering.solve_scattering(gbc, e).s
        worst = max(worst, float(np.abs(s - target).max()))
        _, _, z = scattering.build_xyz(gbc, e)
        det = numkernel.determinant(z)
        det_target = (10.0 - q2 - 9.0 / q2) * e
        worst = max(worst, abs(det - det_target) / abs(det_target))
    found = scattering.spectrum(gbc, 0.5, 100.0)
    expected = np.array([np.pi ** 2, 4.0 * np.pi ** 2, 9.0 * np.pi ** 2])
    if len(found.eigenvalues) != 3:
        return False, f"expected 3 eigenvalues, found {len(found.eigenvalues)}"
    spec_err = float(np.abs(np.array(found.eigenvalues) / expected - 1.0).max())
    ok = worst < 1e-10 and spec_err < 1e-8
    return ok, f"closed-form deviation {worst:.3e}, spectrum relative {spec_err:.3e}"


def _check_chain(rng):
    g = _fixture("chain.json").to_graph()
    a = g.length("mid")
    _, s_direct, defect = starprod.factorize_graph(g, ["mid"], 2.0)
    # dressed two-block formula for the same composition
    k = np.sqrt(2.0)
    s_left = scattering.smatrix_single_vertex(g.vertices[0].bc, 2.0)
    s_right = scattering.smatrix_single_vertex(g.vertices[1].bc, 2.0)
    # right vertex lists the interval end first; its single-vertex channels
    # are ordered like its endpoints, so put the cut channel first
    den = 1.0 - s_left[1, 1] * s_right[0, 0] * np.exp(2j * k * a)
    s11 = s_left[0, 0] + s_left[0, 1] * s_right[0, 0] * s_left[1, 0] \
        * np.exp(2j * k * a) / den
    formula_err = abs(s_direct[0, 0] - s11)
    ok = defect < 1e-10 and formula_err < 1e-10
    return ok, f"factorization defect {defect:.3e}, block formula {formula_err:.3e}"


def _check_ring_star(rng):
    g = _fixture("ring.json").to_graph()
    energies = (0.7, 2.0, 13.0)
    worst = max(defect for _, _, defect in starprod.factorize_many(g, ["i1", "i2"], energies))
    for e in energies:
        # kernel factor against its closed form
        k = np.sqrt(e)
        q2 = np.exp(2j * k)
        s3 = scattering.smatrix_single_vertex(boundary.kirchhoff_standard(3), e)
        corner = s3[1:, 1:]
        k1 = np.linalg.inv(np.eye(2) - corner @ (q2 * corner))
        k1_target = np.array([[1.0 - 5.0 / 9.0 * q2, -4.0 / 9.0 * q2],
                              [-4.0 / 9.0 * q2, 1.0 - 5.0 / 9.0 * q2]]) \
            / ((1.0 - q2 / 9.0) * (1.0 - q2))
        worst = max(worst, float(np.abs(k1 - k1_target).max()))
    return worst < 1e-10, f"max defect {worst:.3e}"


def _check_tadpole(rng):
    g = _fixture("tadpole.json").to_graph()
    split = graphmod.assemble(graphmod.insert_trivial_vertex(g, "loop"))
    energies = [0.3, 1.7, 5.0]
    resonant = (2.0 * np.pi) ** 2
    *outcomes, at_resonance = starprod.factorize_many(g, ["loop"], [*energies, resonant],
                                                      tol=1e-6)
    worst = 0.0
    for e, (composed, direct, _) in zip(energies, outcomes):
        q = np.exp(1j * np.sqrt(e))
        closed = q * (1.0 / q - 3.0) / (q - 3.0)
        inserted = scattering.solve_scattering(split, e).s[0, 0]
        worst = max(worst, abs(direct[0, 0] - closed), abs(inserted - closed),
                    abs(composed[0, 0] - closed))
    flagged = isinstance(at_resonance, starprod.ConditionAViolated)
    ok = worst < 1e-10 and flagged
    return ok, f"max route disagreement {worst:.3e}, resonance flagged={flagged}"


def _check_cyclic(rng):
    worst = 0.0
    circ = 0.0
    for n in (3, 5):
        for c in (0.5, 2.0):
            bc = boundary.cyclic_coupling(c, n)
            for e in (0.5, 2.0, 7.0):
                s = scattering.smatrix_single_vertex(bc, e)
                k = np.sqrt(e)
                target = np.zeros((n, n), dtype=complex)
                for j in range(n):
                    for l in range(n):
                        acc = 0.0j
                        for mm in range(n):
                            w = np.exp(2j * np.pi * (l - j) * mm / n)
                            g = 2.0 * c * k * np.cos(2.0 * np.pi * mm / n)
                            acc += w * (1.0 - 1j * g) / (1.0 + 1j * g)
                        target[j, l] = -acc / n
                worst = max(worst, float(np.abs(s - target).max()))
                rolled = np.roll(np.roll(s, 1, axis=0), 1, axis=1)
                circ = max(circ, float(np.abs(rolled - s).max()))
    ok = worst < 1e-10 and circ < 1e-12
    return ok, f"spectral formula {worst:.3e}, circulant defect {circ:.3e}"


def _sl2_closed_form(a, b, c, d, mu, e):
    k = np.sqrt(e)
    den = a - 1j * k * b + 1j * c / k + d
    return np.array([
        [a - 1j * k * b - 1j * c / k - d, 2.0 * np.exp(1j * mu)],
        [2.0 * np.exp(-1j * mu), -a - 1j * k * b - 1j * c / k + d],
    ]) / den


def _check_sl2(rng):
    worst = 0.0
    draws = []
    for _ in range(5):
        while True:
            a, b, c = rng.normal(size=3)
            if abs(a) > 0.3:
                break
        d = (1.0 + b * c) / a
        draws.append((a, b, c, d, float(rng.uniform(0.0, 2.0 * np.pi))))
    draws.append((1.0, 0.0, 1.4, 1.0, 0.0))    # value-jump junction
    draws.append((1.0, -0.8, 0.0, 1.0, 0.0))   # derivative-jump junction
    for a, b, c, d, mu in draws:
        bc = boundary.sl2_coupling(a, b, c, d, mu)
        for e in (0.5, 2.0, 9.0):
            s = scattering.smatrix_single_vertex(bc, e)
            worst = max(worst,
                        float(np.abs(s - _sl2_closed_form(a, b, c, d, mu, e)).max()))
    return worst < 1e-10, f"max deviation {worst:.3e}"


def _check_random_bcs(rng):
    worst_s = 0.0
    worst_w = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 6))
        bc = boundary.random_bc(n, rng)    # admissible: it checks before returning
        s = scattering.smatrix_single_vertex(bc, 1.7)
        worst_s = max(worst_s, numkernel.unitarity_defect(s))
        w = boundary.von_neumann_parameter(bc)
        worst_w = max(worst_w, numkernel.unitarity_defect(w))
    neumann_w = boundary.von_neumann_parameter(boundary.neumann(3))
    dirichlet_w = boundary.von_neumann_parameter(boundary.dirichlet(3))
    special = max(float(np.abs(neumann_w - 1j * np.eye(3)).max()),
                  float(np.abs(dirichlet_w + np.eye(3)).max()))
    ok = worst_s < 1e-9 and worst_w < 1e-10 and special == 0.0
    return ok, (f"S defect {worst_s:.3e}, extension parameter defect "
                f"{worst_w:.3e}, named cases {special:.1e}")


def _random_graph(rng):
    """Two clusters of random couplings joined by bridge edges (a valid cut)."""
    n_left = int(rng.integers(1, 3))
    n_right = int(rng.integers(0, 3))
    bridges = int(rng.integers(1, 3))
    with_tadpole = bool(rng.integers(0, 2))
    externals = [f"l{i}" for i in range(n_left)] + [f"r{i}" for i in range(n_right)]
    internals = [(f"b{i}", float(rng.uniform(0.2, 3.0))) for i in range(bridges)]
    left_eps = [ext_ref(f"l{i}") for i in range(n_left)]
    left_eps += [int_ref(f"b{i}", "0") for i in range(bridges)]
    if with_tadpole:
        internals.append(("t0", float(rng.uniform(0.2, 3.0))))
        left_eps += [int_ref("t0", "0"), int_ref("t0", "a")]
    right_eps = [ext_ref(f"r{i}") for i in range(n_right)]
    right_eps += [int_ref(f"b{i}", "a") for i in range(bridges)]
    vertices = (
        Vertex(tuple(left_eps), boundary.random_bc(len(left_eps), rng)),
        Vertex(tuple(right_eps), boundary.random_bc(len(right_eps), rng)),
    )
    g = MetricGraph(tuple(externals), tuple(internals), vertices)
    return g, [i for i, _ in internals if i.startswith("b")]


def _check_random_graphs(rng):
    worst = 0.0
    worst_fact = 0.0
    skips = 0
    for _ in range(8):
        g, bridge_ids = _random_graph(rng)
        gbc = graphmod.assemble(g)
        for _ in range(3):
            e = float(rng.uniform(0.3, 12.0))
            res = scattering.solve_scattering(gbc, e)
            if res.at_eigenvalue:
                continue
            worst = max(worst, res.unitarity_defect,
                        scattering.check_transpose(gbc, e),
                        scattering.check_duality(gbc, e))
            u = boundary.random_unitary(gbc.n, rng)
            worst = max(worst, scattering.check_covariance(gbc, u, e))
            try:
                _, _, defect = starprod.factorize_graph(g, bridge_ids, e)
                worst_fact = max(worst_fact, defect)
            except starprod.ConditionAViolated:
                skips += 1
    ok = worst < 1e-9 and worst_fact < 1e-9
    return ok, (f"identity defects {worst:.3e}, factorization {worst_fact:.3e}, "
                f"{skips} resonant skip(s)")


def _check_star_algebra(rng):
    worst_u = 0.0
    for _ in range(30):
        nl = int(rng.integers(2, 6))
        nr = int(rng.integers(2, 6))
        p = int(rng.integers(1, min(nl, nr, (nl + nr - 1) // 2) + 1))
        ops = starprod.StarOperands(boundary.random_unitary(nl, rng),
                                    boundary.random_unitary(nr, rng),
                                    boundary.random_unitary(p, rng), p)
        if ops.margin <= 1e-8:
            continue
        worst_u = max(worst_u, numkernel.unitarity_defect(starprod.star(ops)))
    # unit laws
    worst_unit = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, n))
        u = boundary.random_unitary(n, rng)
        v = boundary.random_unitary(p, rng)
        flip = np.zeros((2 * p, 2 * p), dtype=complex)
        flip[:p, p:] = np.eye(p)
        flip[p:, :p] = np.eye(p)
        left = starprod.star(starprod.StarOperands(flip, u, v, p))
        dv = np.eye(n, dtype=complex)
        dv[:p, :p] = v
        target = np.linalg.inv(dv) @ u @ dv
        worst_unit = max(worst_unit, float(np.abs(left - target).max()))
        right = starprod.star(starprod.StarOperands(u, flip, v, p))
        dv2 = np.eye(n, dtype=complex)
        dv2[n - p:, n - p:] = np.linalg.inv(v)
        target2 = np.linalg.inv(dv2) @ u @ dv2
        worst_unit = max(worst_unit, float(np.abs(right - target2).max()))
    # associativity
    worst_assoc = 0.0
    tries = 0
    attempts = 0
    while tries < 5 and attempts < 50:
        attempts += 1
        n2 = int(rng.integers(2, 5))
        p = int(rng.integers(1, n2))
        pp = int(rng.integers(1, n2 - p + 1))
        n1 = p + int(rng.integers(1, 3))
        n3 = pp + int(rng.integers(1, 3))
        u1 = boundary.random_unitary(n1, rng)
        u2 = boundary.random_unitary(n2, rng)
        u3 = boundary.random_unitary(n3, rng)
        v = boundary.random_unitary(p, rng)
        vp = boundary.random_unitary(pp, rng)
        try:
            worst_assoc = max(worst_assoc,
                              starprod.associativity_check(u1, u2, u3, v, vp, p, pp))
        except starprod.ConditionAViolated:
            continue
        tries += 1
    ok = worst_u < 1e-10 and worst_unit < 1e-12 and worst_assoc < 1e-10
    return ok, (f"unitarity {worst_u:.3e}, unit laws {worst_unit:.3e}, "
                f"associativity {worst_assoc:.3e}")


def _check_pseudoinverse(rng):
    worst = 0.0
    for i in range(20):
        r = int(rng.integers(1, 6))
        c = int(rng.integers(1, 6))
        if i % 3 == 0 and min(r, c) > 1:
            u = rng.normal(size=(r, 1)) + 1j * rng.normal(size=(r, 1))
            v = rng.normal(size=(1, c)) + 1j * rng.normal(size=(1, c))
            m = u @ v
        elif i == 5:
            m = np.zeros((r, c))
        else:
            m = rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))
        pinv = numkernel.pseudoinverse(m)
        scale = max(1.0, float(np.abs(m).max()))
        worst = max(
            worst,
            float(np.abs(m @ pinv @ m - m).max()) / scale,
            float(np.abs(pinv @ m @ pinv - pinv).max()) / scale,
            float(np.abs((m @ pinv).conj().T - m @ pinv).max()),
            float(np.abs((pinv @ m).conj().T - pinv @ m).max()),
        )
    return worst < 1e-10, f"max residual {worst:.3e}"


def _check_round_trip(rng):
    names = sorted(f.name for f in _FIXTURES.iterdir() if f.name.endswith(".json"))
    for name in names:
        doc = _fixture(name)
        again = GraphDocument.from_dict(
            json.loads(json.dumps(doc.to_dict())))
        if again != doc:
            return False, f"{name} does not round-trip"
        doc.to_graph()
    return True, f"{len(names)} fixtures parse and round-trip"


_SELFTEST_CHECKS = (
    ("document round-trip", _check_round_trip),
    ("three-star coupling closed form", _check_three_star),
    ("free junction is transparent", _check_free_junction),
    ("interval with robin end and delta junction", _check_robin_delta),
    ("two-edge ring closed form and spectrum", _check_ring),
    ("two-vertex chain factorization", _check_chain),
    ("ring star composition kernels", _check_ring_star),
    ("tadpole composition three ways", _check_tadpole),
    ("odd cyclic coupling spectral formula", _check_cyclic),
    ("transfer junction family closed form", _check_sl2),
    ("random conditions and extension parameters", _check_random_bcs),
    ("random graph identities and factorization", _check_random_graphs),
    ("star product algebra", _check_star_algebra),
    ("pseudoinverse penrose residuals", _check_pseudoinverse),
)


def run_checks(seed: int) -> list[dict]:
    """Run every check in order on one generator seeded with ``seed``:
    one ``{"name", "ok", "detail"}`` dict per check."""
    rng = np.random.default_rng(seed)
    outcomes = []
    for name, fn in _SELFTEST_CHECKS:
        ok, detail = fn(rng)
        outcomes.append({"name": name, "ok": bool(ok), "detail": detail})
    return outcomes
