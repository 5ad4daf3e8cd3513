"""End-to-end acceptance checks.

Thirteen property-based criteria covering the full pipeline at the default
desk-scale resolutions (128x33, one and two components).  Each test prints a
single summary line; run with -v for one pass/fail line per criterion.
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from conftest import SCENARIO_DIR, tail_ratios
from stripflow.dtn import (
    admissibility,
    dtn_apply,
    dtn_derivative,
    frozen_set,
    localization_residual,
    sector_report,
)
from stripflow.geometry import (
    InterfaceProfile,
    coefficients,
    ellipticity_floor,
    map_forward,
    map_inverse,
)
from stripflow.grids import cheb_lobatto_01
from stripflow.holder import SampledFunction
from stripflow.model import (
    FrozenCoefficients,
    coercivity_probe_59,
    decay_generator,
    default_eta_grid,
    halfplane_dirichlet_solve,
    multiplier_profiles,
)
from stripflow.operator_core import SectorialOperator
from stripflow.scenario import load_scenario, run
from stripflow.stepper import (
    STATUS_BOUNDARY,
    STATUS_COMPLETED,
    STATUS_NORM_BLOWUP,
    EvolutionConfig,
    evolve,
    step,
)
from stripflow.strip import coercivity_probe_33

L = 16 * np.pi
GOLDEN_NAMES = ("flat", "decay_sine", "coupled_pair", "ramp")


def _say(criterion, text):
    print(f"[criterion {criterion:>2}] {text}")


@pytest.fixture(scope="module")
def goldens():
    out = {}
    for name in GOLDEN_NAMES:
        out[name] = load_scenario(os.path.join(SCENARIO_DIR, name + ".scn"))
    return out


def seeded_trace_ensemble(nx, m=1, n_data=3, seed=11, amp=0.02):
    """Band-limited random traces with 1/(1+k)^4 spectral decay."""
    rng = np.random.default_rng(seed)
    x = np.arange(nx) * (L / nx)
    out = []
    for _ in range(n_data):
        vals = np.zeros((nx, m), dtype=complex)
        for kmode in range(1, 7):
            c = (rng.standard_normal(m) + 1j * rng.standard_normal(m))
            vals += np.outer(np.exp(2j * np.pi * kmode * x / L),
                             c / (1 + kmode) ** 4)
        out.append(amp * vals)
    return out


# --------------------------------------------------------------------------
# 1. Transform fidelity
# --------------------------------------------------------------------------

def test_01_transform_fidelity(rng):
    worst = 0.0
    for trial in range(5):
        nx = 128
        x_nodes = np.arange(nx) * (L / nx)
        g = np.zeros(nx)
        for kmode in range(1, 7):
            c = rng.standard_normal() / (1 + kmode) ** 3
            s = rng.standard_normal() / (1 + kmode) ** 3
            g += 0.25 * (c * np.cos(2 * np.pi * kmode * x_nodes / L)
                         + s * np.sin(2 * np.pi * kmode * x_nodes / L))
        p = InterfaceProfile(1.0, L, g.astype(complex)[:, None])
        x = rng.uniform(0.0, L, 1000)
        y_phys = rng.uniform(0.0, 1.0, 1000) * p.height_at(x)
        xs, ys = map_forward(p, x, y_phys)
        xb, yb = map_inverse(p, xs, ys)
        err = max(np.max(np.abs(xb - x)), np.max(np.abs(yb - y_phys)))
        worst = max(worst, err)
    assert worst < 1e-12
    _say(1, f"transform round-trip, 5 profiles x 1000 points: "
            f"max error {worst:.3e} < 1e-12")


# --------------------------------------------------------------------------
# 2. Ellipticity floor
# --------------------------------------------------------------------------

def test_02_ellipticity_floor(goldens):
    y = cheb_lobatto_01(33)[0]
    worst = np.inf
    for name, scn in goldens.items():
        c = coefficients(scn.profile(), y)
        rep = ellipticity_floor(c, tol=1e-10)
        assert rep.passed, f"{name}: ellipticity floor violated"
        worst = min(worst, rep.margin)
    assert worst >= -1e-10
    _say(2, f"least-eigenvalue margin over every node of all goldens: "
            f"{worst:.3e} >= -1e-10")


# --------------------------------------------------------------------------
# 3. Exact-root certificate
# --------------------------------------------------------------------------

def node_of(p, x0):
    return int(round(x0 / (p.L / p.nx))) % p.nx


def frozen_sets_from_goldens(goldens, mu):
    """Scalar coefficient freezes at each golden's least-margin node."""
    sets = []
    for name, scn in goldens.items():
        p = scn.profile()
        adm = admissibility(p, scn.A, mu=4.0, ny=17)
        i0 = node_of(p, adm.margin_argmin)
        c = coefficients(p, np.array([0.0]))
        a12 = float(np.real(c.a12[i0, 0, 0]))
        a22 = float(np.real(c.a22[i0, 0, 0]))
        sets.append((name, FrozenCoefficients(a12, a22, scn.A, mu)))
    return sets


def test_03_exact_root_certificate(goldens):
    etas = np.unique(np.concatenate([
        np.linspace(-64.0, 64.0, 257),
        default_eta_grid(L, 128),
    ]))
    etas = etas[np.abs(etas) <= 64.0]
    worst_rel = 0.0
    min_re = np.inf
    n_checked = 0
    for mu in (0.0, 1.0, 4.0):
        for name, fc in frozen_sets_from_goldens(goldens, mu):
            for eta in etas:
                gen = decay_generator(fc, eta)
                lam = gen.Lambda
                amu = fc.a_mu(eta)
                res = np.linalg.norm(-fc.a22 * lam @ lam
                                     - 2j * fc.a12 * eta * lam + amu)
                rel = res / np.linalg.norm(amu)
                worst_rel = max(worst_rel, rel)
                min_re = min(min_re, float(np.min(np.linalg.eigvals(lam).real)))
                n_checked += 1
    assert worst_rel < 1e-10
    assert min_re > 0.0
    _say(3, f"{n_checked} roots, eta in [-64,64], mu in {{0,1,4}}: "
            f"max relative residual {worst_rel:.3e} < 1e-10, "
            f"min Re spectrum {min_re:.3f} > 0")


# --------------------------------------------------------------------------
# 4. Multiplier-solver oracle
# --------------------------------------------------------------------------

def dense_mode_bvp(fc, k, amp, y_out, Ybig=12.0, npts=2000):
    """2000-point finite-difference oracle for the half-line mode problem."""
    m = amp.size
    h = Ybig / (npts - 1)
    I = np.eye(m)
    amu = fc.a_mu(k)
    rows, cols, vals = [], [], []
    for i in range(1, npts - 1):
        for a in range(m):
            for b in range(m):
                c2 = -fc.a22 / h ** 2
                rows += [i * m + a] * 3
                cols += [(i - 1) * m + b, i * m + b, (i + 1) * m + b]
                vals += [c2 * I[a, b], -2 * c2 * I[a, b] + amu[a, b],
                         c2 * I[a, b]]
                c1 = -2j * fc.a12 * k / (2 * h)
                rows += [i * m + a] * 2
                cols += [(i - 1) * m + b, (i + 1) * m + b]
                vals += [-c1 * I[a, b], c1 * I[a, b]]
    for a in range(m):
        rows += [a, (npts - 1) * m + a]
        cols += [a, (npts - 1) * m + a]
        vals += [1.0, 1.0]
    n = npts * m
    Amat = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
    rhs = np.zeros(n, dtype=complex)
    rhs[:m] = amp
    v = scipy.sparse.linalg.spsolve(Amat, rhs).reshape(npts, m)
    ygrid = np.linspace(0.0, Ybig, npts)
    out = np.empty((y_out.size, m), dtype=complex)
    for c in range(m):
        out[:, c] = (np.interp(y_out, ygrid, v[:, c].real)
                     + 1j * np.interp(y_out, ygrid, v[:, c].imag))
    return out


def test_04_halfplane_oracle(rng):
    A1 = SectorialOperator(np.array([[1.0]]))
    A2 = SectorialOperator(np.array([[2.0, 0.5], [0.0, 1.0]]))
    nx = 64
    x = np.arange(nx) * (L / nx)
    y = np.linspace(0.0, 1.2, 25)
    worst = 0.0
    for case in range(8):
        m = 1 if case % 2 == 0 else 2
        A = A1 if m == 1 else A2
        fc = FrozenCoefficients(rng.uniform(-0.3, 0.3),
                                rng.uniform(1.0, 1.6), A,
                                float(rng.choice([1.0, 4.0])))
        kmode = int(rng.integers(1, 17)) * int(rng.choice([-1, 1]))
        k = 2 * np.pi * kmode / L
        amp = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        psi = np.outer(np.exp(1j * k * x), amp)
        sol = halfplane_dirichlet_solve(fc, psi, y, L=L)
        v = dense_mode_bvp(fc, k, amp, y)
        i0 = 5
        expected = v * np.exp(1j * k * x[i0])
        rel = (np.max(np.abs(sol.values[i0] - expected))
               / np.max(np.abs(expected)))
        worst = max(worst, rel)
    assert worst < 1e-4
    _say(4, f"8 random single modes vs 2000-point dense BVP: "
            f"max relative Linf {worst:.3e} < 1e-4")


# --------------------------------------------------------------------------
# 5. Coercivity stability
# --------------------------------------------------------------------------

def test_05_coercivity_stability():
    mu_list = (1.0, 2.0, 4.0, 8.0)
    A = SectorialOperator(np.array([[1.0]]))

    # mode-exact route
    fc = FrozenCoefficients(0.12, 1.3, A, 0.0)
    sf = [SampledFunction(L, v) for v in seeded_trace_ensemble(64)]
    r59 = coercivity_probe_59(fc, sf, mu_list)
    assert r59.mu_spread < 2.0

    # full variable-coefficient route with grid doubling
    ratios = []
    spreads = []
    for nx in (64, 128, 256):
        x = np.arange(nx) * (L / nx)
        g = (0.08 * np.sin(2 * np.pi * x / L)).astype(complex)[:, None]
        p = InterfaceProfile(1.0, L, g)
        ens = [(None, v, None) for v in seeded_trace_ensemble(nx)]
        rep = coercivity_probe_33(p, A, mu_list, ens)
        ratios.append(rep.max_ratio)
        spreads.append(rep.mu_spread)
    assert all(s < 2.0 for s in spreads)
    drift = max(abs(ratios[i + 1] - ratios[i]) / ratios[i] for i in range(2))
    assert drift < 0.25
    _say(5, f"probe ratios: mu-spreads {r59.mu_spread:.3f} (mode route) / "
            f"{max(spreads):.3f} (strip route) < 2; grid-doubling drift "
            f"{drift:.2e} < 0.25")


# --------------------------------------------------------------------------
# 6. Multiplier decay
# --------------------------------------------------------------------------

def test_06_multiplier_decay(goldens):
    scn = goldens["decay_sine"]
    p = scn.profile()
    adm = admissibility(p, scn.A, mu=4.0, ny=17)
    c = coefficients(p, np.array([0.0]))
    i0 = node_of(p, adm.margin_argmin)
    cases = [
        FrozenCoefficients(0.0, 1.0, scn.A, 4.0),
        FrozenCoefficients(float(np.real(c.a12[i0, 0, 0])),
                           float(np.real(c.a22[i0, 0, 0])), scn.A, 4.0),
    ]
    y = np.linspace(0.1, 10.0, 160)
    worst_tail = 0.0
    for fc in cases:
        rep = multiplier_profiles(fc, y, eta_grid=default_eta_grid(L, 128))
        profs = [rep.phi0] + [rep.phi_j[j] for j in range(rep.phi_j.shape[0])]
        for prof in profs:
            assert np.all(np.isfinite(prof))
            tail_start = 2 * len(y) // 3
            assert np.all(np.diff(prof[tail_start:]) <= 1e-14), \
                "profile not eventually monotone"
        worst_tail = max(worst_tail, max(tail_ratios(rep).values()))
    assert worst_tail < 1e-3
    _say(6, f"multiplier profiles finite, eventually monotone; "
            f"max tail ratio Phi(10)/Phi(0.1) = {worst_tail:.3e} < 1e-3")


# --------------------------------------------------------------------------
# 7. Derivative correctness
# --------------------------------------------------------------------------

def test_07_derivative_correctness():
    nx, ny, mu = 128, 33, 4.0
    x = np.arange(nx) * (L / nx)
    A = SectorialOperator(np.array([[1.0]]))
    profiles = [
        InterfaceProfile(1.0, L, np.zeros((nx, 1), dtype=complex)),
        InterfaceProfile(1.0, L, (0.1 * np.sin(2 * np.pi * x / L))
                         .astype(complex)[:, None]),
        InterfaceProfile(1.0, L, (-0.3 * np.exp(np.cos(2 * np.pi * x / L)
                                                - 1.0))
                         .astype(complex)[:, None]),
    ]
    directions = [
        np.cos(2 * np.pi * x / L).astype(complex)[:, None],
        np.sin(2 * np.pi * 3 * x / L).astype(complex)[:, None],
        (0.5 * np.exp(np.cos(2 * np.pi * 2 * x / L) - 1.0))
        .astype(complex)[:, None],
    ]
    # slope over a noise-free decade; agreement separately at eps = 1e-4
    # (there the smoothest combinations already graze the linear-solver
    # residual floor, orders of magnitude inside the agreement bound)
    eps_slope = (3e-3, 3e-4)
    eps_agree = 1e-4
    worst_slope_err = 0.0
    worst_agreement = 0.0

    def fd_error(p, psi, dop, eps):
        plus = dtn_apply(p.with_g(p.g + eps * psi), A, mu,
                         ny=ny).value.values
        minus = dtn_apply(p.with_g(p.g - eps * psi), A, mu,
                          ny=ny).value.values
        return np.max(np.abs((plus - minus) / (2 * eps) - dop))

    for p in profiles:
        for psi in directions:
            dop = dtn_derivative(p, A, psi, mu_solve=mu, ny=ny)
            scale = max(np.max(np.abs(dop)), 1e-30)
            errs = [fd_error(p, psi, dop, e) for e in eps_slope]
            slope = (np.log(errs[0] / errs[1])
                     / np.log(eps_slope[0] / eps_slope[1]))
            worst_slope_err = max(worst_slope_err, abs(slope - 2.0))
            worst_agreement = max(worst_agreement,
                                  fd_error(p, psi, dop, eps_agree) / scale)
    assert worst_slope_err < 0.2
    assert worst_agreement <= 1e-5
    _say(7, f"3 profiles x 3 directions: slope within 2 +/- "
            f"{worst_slope_err:.3f}; relative agreement at eps=1e-4 "
            f"{worst_agreement:.2e} <= 1e-5")


# --------------------------------------------------------------------------
# 8. Frozen-operator generation
# --------------------------------------------------------------------------

def test_08_frozen_operator_generation(goldens):
    mu = 4.0
    checked = []
    for name, scn in goldens.items():
        p = scn.profile()
        adm = admissibility(p, scn.A, mu=mu, ny=scn.ny)
        if not adm.in_W1:
            continue
        x0 = p.x[node_of(p, adm.margin_argmin)]
        fset = frozen_set(p, scn.A, x0, mu, ny=scn.ny)
        rep = sector_report(fset, scn.A)
        assert rep.passed, f"{name}: sector audit failed"
        assert rep.generates_analytic_semigroup
        for op_name in ("O10", "O20", "O30", "O0"):
            entry = rep.entries[op_name]
            assert entry.passed, f"{name}/{op_name}"
            assert entry.half_angle < np.pi / 2 + 0.1
        assert np.isfinite(rep.c1) and np.isfinite(rep.c2)
        assert rep.c2 / rep.c1 < 1e3
        checked.append(name)
    assert set(checked) == set(GOLDEN_NAMES)   # every golden is in W1
    _say(8, f"sector audit passed for O10/O20/O30/O0 on {checked}; "
            f"two-sided norm ratios all < 1e3")


# --------------------------------------------------------------------------
# 9. Equilibrium and stability
# --------------------------------------------------------------------------

def test_09_equilibrium_and_stability(goldens):
    # equilibrium: the flat profile stays numerically flat for 100 steps
    A = SectorialOperator(np.array([[1.0]]))
    p = InterfaceProfile(1.0, L, np.zeros((128, 1), dtype=complex))
    for _ in range(100):
        p = step(p, A, 0.02, mu_solve=0.0, ny=33)
    drift = float(np.max(np.abs(p.g)))
    assert drift < 1e-10

    # stability: the small-sinusoid golden decays monotonically in L2
    scn = goldens["decay_sine"]
    traj = evolve(scn.profile(), scn.A, scn.config)
    assert traj.status == STATUS_COMPLETED
    l2 = [np.linalg.norm(prof.g) for prof in traj.profiles]
    assert len(l2) == 51
    assert all(l2[i + 1] < l2[i] for i in range(len(l2) - 1))
    _say(9, f"flat drift after 100 steps {drift:.2e} < 1e-10; "
            f"sinusoid L2 decays monotonically over 50 steps "
            f"({l2[0]:.2e} -> {l2[-1]:.2e})")


# --------------------------------------------------------------------------
# 10. Time-stepper order
# --------------------------------------------------------------------------

def test_10_time_stepper_order(goldens):
    scn = goldens["decay_sine"]
    p0 = scn.profile()
    t_end = 0.16
    finals = []
    for dt in (0.02, 0.01, 0.005):
        cfg = EvolutionConfig(dt=dt, t_end=t_end, scheme="semi_implicit_euler",
                              mu_solve=0.0, ny=scn.ny,
                              output_stride=10 ** 9)
        traj = evolve(p0, scn.A, cfg)
        assert traj.status == STATUS_COMPLETED
        assert traj.times[-1] == pytest.approx(t_end)
        finals.append(traj.final.g)
    e1 = np.linalg.norm(finals[0] - finals[1])
    e2 = np.linalg.norm(finals[1] - finals[2])
    slope = np.log2(e1 / e2)
    assert abs(slope - 1.0) < 0.15
    _say(10, f"Richardson slope over dt halvings: {slope:.3f} in 1 +/- 0.15")


# --------------------------------------------------------------------------
# 11. Localization residual
# --------------------------------------------------------------------------

def test_11_localization_residual():
    A = SectorialOperator(np.array([[1.0]]))
    nx, ny = 128, 33
    x = np.arange(nx) * (L / nx)
    g = (0.25 * np.sin(2 * np.pi * 2 * x / L)).astype(complex)[:, None]
    p = InterfaceProfile(1.0, L, g)
    direction = np.cos(2 * np.pi * x / L).astype(complex)[:, None]
    maxes = []
    for delta in (1.0, 0.5, 0.25):
        rep = localization_residual(p, A, delta, direction, ny=ny)
        maxes.append(rep.max_residual)
    assert maxes[0] > maxes[1] > maxes[2]
    _say(11, "freeze residual decreases monotonically: "
             + " > ".join(f"{v:.4e}" for v in maxes))


# --------------------------------------------------------------------------
# 12. Breakdown dichotomy
# --------------------------------------------------------------------------

def test_12_breakdown_dichotomy(goldens, tmp_path):
    scn = goldens["ramp"]
    out = str(tmp_path / "ramp_out")
    manifest, status = run(scn, out_dir=out)
    assert status == STATUS_BOUNDARY
    assert manifest.status == STATUS_BOUNDARY
    assert manifest.status != STATUS_NORM_BLOWUP
    # outputs written despite the breakdown, and the flags never co-occur
    diag = open(os.path.join(out, "diagnostics.csv")).read()
    assert STATUS_BOUNDARY in diag
    assert STATUS_NORM_BLOWUP not in diag
    _say(12, "amplitude-ramped scenario ends in BoundaryApproach, "
             "NormBlowup never raised, outputs written")


# --------------------------------------------------------------------------
# 13. Reproducibility
# --------------------------------------------------------------------------

def test_13_reproducibility(goldens, tmp_path):
    scn = goldens["decay_sine"]
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for d in dirs:
        manifest, status = run(scn, out_dir=d, deterministic=True)
        assert status == STATUS_COMPLETED
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1]))
    for name in names:
        a = open(os.path.join(dirs[0], name), "rb").read()
        b = open(os.path.join(dirs[1], name), "rb").read()
        assert a == b, f"{name} differs between deterministic runs"
    _say(13, f"two deterministic runs byte-identical across {names}")
