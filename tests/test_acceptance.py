"""Go/no-go acceptance checks for the solver, numbered 1-10.

Each criterion is one test with its tolerances pinned inline; a
`criterion N: PASS/FAIL` line is printed per test and the terminal summary
(see conftest.py) repeats all verdicts at the end of the run.

Scope of the criteria:
  1  projector exactness on cells from all three mesh families
  2  structural identities of the assembled operators
  3  patch test: time-linear polynomial solutions are reproduced exactly
  4  EOC arithmetic pinned against published benchmark-table entries
  5  convergence orders on distorted squares
  6  convergence orders AND error magnitudes on the concave family
  7  convergence orders, convection-dominated problem, concave family
  8  first-order temporal accuracy of the implicit stepper
  9  adaptive refinement beats uniform at matched active-dof counts
 10  convergence orders on Voronoi meshes (magnitudes reported, not hard:
     the reference meshes are seed-dependent realizations)
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import benchmarks
from manufactured import polynomial_patch, quadratic_time
from polyvem import projectors as P
from test_projectors import grad_projection_gram
from polyvem.analysis import (
    compute_eoc,
    compute_errors,
    least_squares_slope,
    matched_dof_comparison,
    run_adaptive_study,
)
from polyvem.mesh import (
    generate_concave_mesh,
    generate_distorted_square_mesh,
    generate_voronoi_mesh,
)
from polyvem.problems import get_problem
from polyvem.system import TimeStepperConfig, assemble, run_time_loop

# ---------------------------------------------------------------------------
# pinned tolerances
# ---------------------------------------------------------------------------

PROJECTION_TOL = 1e-10  # criterion 1: projector reproduction and G = B D
STRUCTURE_TOL = 1e-12  # criterion 2: skewness / stabilizer kernels
PATCH_TOL = 1e-8  # criterion 3: patch-test errors
EOC_PIN_TOL = 5e-4  # criterion 4: pins recomputed from exact/printed h
EOC_PIN_TOL_COARSE = 2e-3  # criterion 4: pin whose h is only printed to 4 digits
E0_SLOPE_BAND = (0.75, 1.25)  # criteria 5/6/7/10: slope of E0h in [k+lo, k+hi]
E1_SLOPE_BAND = (-0.25, 0.25)  # criteria 5/6/7/10: slope of E1h in [k+lo, k+hi]
MAGNITUDE_FACTOR = 2.0  # criteria 6/10: error magnitude vs published at same h
TEMPORAL_BAND = (0.85, 1.15)  # criterion 8: E0h slope in tau = 1.0 +- 0.15
ADAPTIVE_SLACK = 1.0 + 1e-9  # criterion 9: float noise only, not a real margin

CRITERIA = {
    1: "projectors reproduce polynomials on >=200 cells, all families, k=1..3",
    2: "B skew-symmetric; M1, M2 factorizable; stabilizer kernels vanish",
    3: "patch test: u = t*p(x,y) reproduced to 1e-8 through the full stepper",
    4: "EOC arithmetic matches published table entries",
    5: "distorted squares: E0h/E1h slopes in [k+0.75,k+1.25]/[k-0.25,k+0.25]",
    6: "concave family: slopes in bands and magnitudes within factor 2",
    7: "convection-dominated on concave family: slopes in bands",
    8: "temporal order: E0h slope in tau = 1.0 +- 0.15",
    9: "adaptive <= uniform E0h at matched active dofs; hanging nodes present",
    10: "voronoi family: slopes in bands (magnitudes reported)",
}


@contextmanager
def _report(num):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL  {CRITERIA[num]}")
        raise
    print(f"criterion {num:2d}: PASS  {CRITERIA[num]}")


def _assert_slope_bands(record, k, label):
    s0 = least_squares_slope(record.h, record.e0)
    s1 = least_squares_slope(record.h, record.e1)
    assert k + E0_SLOPE_BAND[0] <= s0 <= k + E0_SLOPE_BAND[1], (
        f"{label} k={k}: E0h slope {s0:.4f} outside "
        f"[{k + E0_SLOPE_BAND[0]}, {k + E0_SLOPE_BAND[1]}]"
    )
    assert k + E1_SLOPE_BAND[0] <= s1 <= k + E1_SLOPE_BAND[1], (
        f"{label} k={k}: E1h slope {s1:.4f} outside "
        f"[{k + E1_SLOPE_BAND[0]}, {k + E1_SLOPE_BAND[1]}]"
    )


def _matched_ratios(record, table, k):
    """(component, h, mine/published) at every published h inside the
    computed ladder's range, with my error log-log interpolated to that h."""
    h_mine = np.asarray(record.h, dtype=float)
    out = []
    for comp in ("e0", "e1"):
        e_mine = np.asarray(getattr(record, comp), dtype=float)
        log_h = np.log(h_mine[::-1])
        log_e = np.log(e_mine[::-1])
        for h_pub, e_pub in zip(table["h"], table[k][comp]):
            if e_pub is None or not (h_mine.min() <= h_pub <= h_mine.max()):
                continue
            mine = math.exp(float(np.interp(math.log(h_pub), log_h, log_e)))
            out.append((comp, h_pub, mine / e_pub))
    return out


# ---------------------------------------------------------------------------
# 1. projector suite
# ---------------------------------------------------------------------------


def test_criterion_01_projector_suite():
    with _report(1):
        start = time.perf_counter()
        meshes = [
            generate_distorted_square_mesh(8, 0.3, seed=0),  # 64 cells
            generate_voronoi_mesh(70, lloyd_iterations=3, seed=1),  # 70 cells
            generate_concave_mesh(6),  # 72 cells
        ]
        assert sum(m.num_cells for m in meshes) >= 200

        for mesh in meshes:
            for k in (1, 2, 3):
                groups = [P.build_element(geom, k) for geom in mesh.cell_groups]
                assert sum(len(group.geom.index) for group in groups) == mesh.num_cells
                for el in (group[i] for group in groups for i in range(len(group.geom.index))):
                    eye = np.eye(el.basis.dim)
                    d = el.dof_matrix
                    # elliptic and L2 projectors restricted to polynomial
                    # dof vectors are the identity on coefficients
                    assert np.abs(el.pi_grad_star @ d - eye).max() < PROJECTION_TOL
                    assert np.abs(el.pi0_star @ d - eye).max() < PROJECTION_TOL
                    # gradient projector reproduces exact derivatives
                    nk1 = P.polynomial_dimension(k - 1)
                    for axis in range(2):
                        got = el.pi0_grad_star[axis] @ d
                        want = el.basis.derivative_map(axis)[:nk1]
                        assert np.abs(got - want).max() < PROJECTION_TOL
                    # consistency of the defining linear systems: B D = G
                    gram = grad_projection_gram(el)
                    scale = max(1.0, np.abs(gram).max())
                    defect = np.abs(el.b_matrix @ d - gram).max() / scale
                    assert defect < PROJECTION_TOL

        assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# 2. structural identities
# ---------------------------------------------------------------------------


def test_criterion_02_structural_identities():
    with _report(2):
        mesh = generate_voronoi_mesh(40, lloyd_iterations=3, seed=2)
        system = assemble(mesh, 2, get_problem("variable"))

        # convection matrix exactly skew: b_h(w, w) = w^T B w = 0
        b = system.b.toarray()
        assert np.abs(b + b.T).max() <= STRUCTURE_TOL

        # M1, M2 positive definite on the Dirichlet-eliminated block the
        # stepper factorizes (M2 annihilates constants on the unconstrained
        # space, so that is the meaningful definiteness statement)
        act = system.dofmap.active
        for mat in (system.m1, system.m2):
            np.linalg.cholesky(mat.toarray()[np.ix_(act, act)])

        # stabilizer kernels: polynomial dof vectors are invisible to Q
        for k in (1, 2, 3):
            for geom in mesh.cell_groups:
                group = P.build_element(geom, k)
                assert np.abs(group.stab_q @ group.dof_matrix).max() <= STRUCTURE_TOL


# ---------------------------------------------------------------------------
# 3. patch test
# ---------------------------------------------------------------------------


def test_criterion_03_patch_test():
    with _report(3):
        start = time.perf_counter()
        mesh = generate_distorted_square_mesh(4, 0.3, seed=0)
        for k in (1, 2, 3):
            problem = polynomial_patch(k)
            system = assemble(mesh, k, problem)
            result = run_time_loop(system, TimeStepperConfig(tau=0.1, t_end=1.0))
            pair = compute_errors(system, result.u, result.t)
            assert pair.e0 <= PATCH_TOL, f"k={k}: E0h {pair.e0:.3e}"
            assert pair.e1 <= PATCH_TOL, f"k={k}: E1h {pair.e1:.3e}"
        assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 4. EOC arithmetic regression
# ---------------------------------------------------------------------------


def test_criterion_04_eoc_regression():
    with _report(4):
        start = time.perf_counter()
        vor = benchmarks.VARIABLE_VORONOI
        dis = benchmarks.VARIABLE_DISTORTED
        con = benchmarks.VARIABLE_CONCAVE
        cdi = benchmarks.CONVECTION_DISTORTED

        # published EOC columns recomputed from the adjacent (h, error) pairs
        pins = [
            (vor["h"][0:2], vor[1]["e0"][0:2], 2.3294, EOC_PIN_TOL),
            (dis["h"][2:4], dis[1]["e0"][2:4], 1.9826, EOC_PIN_TOL),
            (dis["h"][2:4], dis[1]["e1"][2:4], 0.9956, EOC_PIN_TOL),
            # the concave ladder is deterministic, so the exact h ratio is
            # available and the pin holds at the printed-value tolerance
            (con["h"][0:2], con[3]["e0"][0:2], 3.7403, EOC_PIN_TOL),
            # h here is irrational and printed to 4 significant digits; the
            # recomputation inherits that rounding (defect measured 1.1e-3)
            (cdi["h"][0:2], cdi[3]["e1"][0:2], 2.9185, EOC_PIN_TOL_COARSE),
        ]
        for h, errors, target, tol in pins:
            eoc = compute_eoc(h, errors)[1]
            assert abs(eoc - target) <= tol, (
                f"EOC {eoc:.4f} vs published {target} (tol {tol})"
            )
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 5-7, 10. full convergence protocols (sweeps shared via sweep_cache)
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_05_distorted_convergence(sweep_cache):
    with _report(5):
        for k in (1, 2, 3):
            record = sweep_cache("variable", "distorted", k)
            h = np.asarray(record.h)
            assert len(h) == 4
            assert 0.3 <= h[0] <= 0.5  # ladder starts near the published one
            ratios = h[:-1] / h[1:]
            assert np.all((1.8 <= ratios) & (ratios <= 2.2))  # halving
            _assert_slope_bands(record, k, "distorted")
            assert sum(p.seconds for p in record.pairs) < 300.0, f"k={k} budget"


@pytest.mark.slow
def test_criterion_06_concave_convergence_and_magnitudes(sweep_cache):
    with _report(6):
        table = benchmarks.VARIABLE_CONCAVE
        for k in (1, 2, 3):
            record = sweep_cache("variable", "concave", k)
            _assert_slope_bands(record, k, "concave")
            ratios = _matched_ratios(record, table, k)
            assert ratios, f"k={k}: no published h inside the computed range"
            for comp, h_pub, ratio in ratios:
                assert 1.0 / MAGNITUDE_FACTOR <= ratio <= MAGNITUDE_FACTOR, (
                    f"concave k={k} {comp} at h={h_pub:.4g}: "
                    f"mine/published = {ratio:.3f} outside factor "
                    f"{MAGNITUDE_FACTOR}"
                )


@pytest.mark.slow
def test_criterion_07_convection_concave_convergence(sweep_cache):
    with _report(7):
        for k in (1, 2, 3):
            record = sweep_cache("convection", "concave", k)
            _assert_slope_bands(record, k, "convection/concave")


@pytest.mark.slow
def test_criterion_10_voronoi_convergence(sweep_cache):
    with _report(10):
        table = benchmarks.VARIABLE_VORONOI
        for k in (1, 2, 3):
            record = sweep_cache("variable", "voronoi", k)
            _assert_slope_bands(record, k, "voronoi")
            # Magnitude comparison is reported but not asserted: the
            # published runs are realizations of an unpublished seeded
            # generator, and their h scaling is consistent with a mean cell
            # diameter while this code measures the max, so matched-h error
            # levels are generator-dependent.  Orders are the hard criterion.
            for comp, h_pub, ratio in _matched_ratios(record, table, k):
                level = "within" if 0.5 <= ratio <= 2.0 else "OUTSIDE"
                print(
                    f"criterion 10 note: voronoi k={k} {comp} at "
                    f"h={h_pub:.4g}: mine/published = {ratio:.3f} "
                    f"({level} factor 2)"
                )


# ---------------------------------------------------------------------------
# 8. temporal order
# ---------------------------------------------------------------------------


def test_criterion_08_temporal_order():
    with _report(8):
        mesh = generate_distorted_square_mesh(16, 0.3, seed=0)
        problem = quadratic_time()
        system = assemble(mesh, 2, problem)  # spatial error ~4e-6, negligible
        taus = [0.1, 0.05, 0.025]
        errors = []
        for tau in taus:
            result = run_time_loop(system, TimeStepperConfig(tau=tau, t_end=1.0))
            errors.append(compute_errors(system, result.u, result.t).e0)
        slope = least_squares_slope(taus, errors)
        assert TEMPORAL_BAND[0] <= slope <= TEMPORAL_BAND[1], (
            f"E0h slope in tau = {slope:.4f} outside {TEMPORAL_BAND}"
        )


# ---------------------------------------------------------------------------
# 9. adaptive vs uniform refinement
# ---------------------------------------------------------------------------


def test_criterion_09_adaptive_beats_uniform():
    with _report(9):
        start = time.perf_counter()
        study = run_adaptive_study(
            get_problem("gaussian"), k=1, cycles=5, start_n=8, theta=0.3, tau=1e-3, t_end=1.0
        )
        matched = matched_dof_comparison(study)
        assert len(matched) >= 3, "too few matched active-dof points"
        for dofs, e_adapt, e_unif in matched:
            assert e_adapt <= e_unif * ADAPTIVE_SLACK, (
                f"at {dofs} active dofs: adaptive {e_adapt:.3e} sits above "
                f"uniform {e_unif:.3e}"
            )
        assert any(len(cell) > 4 for cell in study.final_mesh.cells), (
            "final adaptive mesh has no hanging nodes"
        )
        assert time.perf_counter() - start < 300.0
