"""The interface operator: nonlinear application, exact derivative, frozen parts.

The interface moves by O(g) = B0(g) K(g) g — solve the flattened problem
with Dirichlet data g, then read the oblique boundary operator off the
solution.  Its Fréchet derivative splits into three computable pieces,

    dO(g) psi = B0(g) K(g) psi  +  dB0(g)[psi, v]  -  B0(g) S(g) dB(g)[psi, v],

with v = K(g) g, where dB and dB0 differentiate the transformed coefficient
fields along psi.  K(g) and S(g) solve the same discrete strip problem with
Dirichlet data and with an interior source, and both the right-hand side
and the read-out B0 are linear, so the first and third pieces together cost
one strip solve with data (-dB, psi).
Freezing the coefficients at a boundary node turns each piece into a
Fourier multiplier (O10, O20, O30); O20 and O30 are the chain rule of dO(g)
itself, evaluated at the node with psi = e^{ikx}.  Their sum O0 is the
frozen model of dO and drives the sector/localization diagnostics.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.fft import fft, ifft

from .errors import FreezePointError
from .geometry import coefficient_derivatives
from .grids import (as_inexact, partition_of_unity, random_trace,
                    spectral_derivative, torus_wavenumbers)
from .holder import SampledFunction, h1alpha_norm, h2alpha_norm
from .model import (FrozenCoefficients, strip_profile_response,
                    strip_trace_gradient_map)
from .operator_core import InterpNormEvaluator
from .strip import DiscreteStripOperator, b0_trace


def _as_direction(profile, psi):
    psi = as_inexact(psi)
    if psi.ndim == 1:
        psi = np.tile(psi[:, None], (1, profile.m)) if profile.m > 1 else psi[:, None]
    if psi.shape != (profile.nx, profile.m):
        raise ValueError(f"direction shape {psi.shape} does not match profile "
                         f"({profile.nx}, {profile.m})")
    return psi


class DtNOperator:
    """One assembled operator serving O(g), dO(g) and their diagnostics.

    Everything about a profile follows from the single Dirichlet solve
    v = K(g) g, cached by upsilon(): the readout O(g), the W1 margin, the
    admissibility report and the frozen symbols.  The Dirichlet solve (K),
    the source solve (S) and the boundary read-out all share one discrete
    operator and preconditioner, so repeated derivative applications (e.g.
    inside an implicit time step) reuse its one eigendecomposition of the
    x-averaged operator (the fast diagonalisation in strip, which drops the
    mixed term because the x-average of a12 vanishes).
    derivative() makes one strip solve per direction: K psi and S dB solve
    the same discrete problem, whose right-hand side is linear in the
    Dirichlet data and the interior source, and B0 is linear, so their
    read-outs combine into that of one solve.
    upsilon, when given, is K(g) g already solved for this profile with the
    same A, mu, ny and rtol (a loaded Scenario keeps its t = 0 solve); it
    seeds the cache.
    """

    def __init__(self, profile, A, mu, ny=33, rtol=1e-11, upsilon=None):
        self.profile = profile
        self.mu = float(mu)
        self.rtol = rtol
        self.op = DiscreteStripOperator(profile, A, mu, ny=ny)
        self.A = A
        self.coeffs = self.op.coeffs
        self._upsilon = upsilon
        self._v_derivatives = None
        self._frozen = {}       # node index -> FrozenOperatorSet
        self._evaluators = {}   # alpha -> InterpNormEvaluator of A

    def upsilon(self):
        """K(g) g, cached across calls."""
        if self._upsilon is None:
            self._upsilon = self.op.solve(psi0=self.profile.g, rtol=self.rtol)
        return self._upsilon

    def apply(self):
        """O(g) = B0(g) K(g) g, the (nx, m) trace."""
        return b0_trace(self.coeffs, self.upsilon())

    def evaluator(self, alpha):
        """The InterpNormEvaluator of A at exponent alpha, built once per
        operator."""
        if alpha not in self._evaluators:
            self._evaluators[alpha] = InterpNormEvaluator(self.A, alpha)
        return self._evaluators[alpha]

    # -- derivative pieces ---------------------------------------------------

    def derivative_sources(self, psi):
        """(dB(g)[psi, v], dB0(g)[psi, v]) for the solved field v = K(g) g.

        The first is the interior source produced by perturbing B along psi
        (the coupling operator A is constant, so it contributes no term),
        the second the perturbation of the oblique boundary read-out.
        """
        p = self.profile
        return self._pieces(
            slice(None), (p.nu + p.g)[:, None, :], p.g_x[:, None, :],
            p.g_xx[:, None, :], psi[:, None, :],
            spectral_derivative(psi, p.L, 1)[:, None, :],
            spectral_derivative(psi, p.L, 2)[:, None, :])

    def _pieces(self, at, w, gx, gxx, ps, ps_x, ps_xx):
        """The chain rule along psi at the x-nodes at, with v = K(g) g: the
        interior source -2 da12 v_xy - da22 v_yy + da2 v_y and the boundary
        piece db10 v_x + db20 v_y at y = 0.  Each argument after at has a
        length-1 middle axis, to broadcast against the y axis of beta."""
        v_xy, v_yy, v_y, tr_x, tr_y = (
            d[at] for d in self._upsilon_derivatives())
        da12, da22, da2, db10, db20 = coefficient_derivatives(
            self.coeffs.beta[None, :, None], w, gx, gxx, ps, ps_x, ps_xx)
        interior = -2.0 * da12 * v_xy - da22 * v_yy + da2 * v_y
        return interior, db10[:, 0] * tr_x + db20[:, 0] * tr_y

    def _upsilon_derivatives(self):
        """v_xy, v_yy, v_y and the y = 0 traces of v_x, v_y; cached."""
        if self._v_derivatives is None:
            ups = self.upsilon()
            self._v_derivatives = (
                ups.dxy(), ups.dy(2), ups.dy(1),
                spectral_derivative(ups.trace0(), self.profile.L, 1),
                ups.dy_trace0())
        return self._v_derivatives

    def derivative(self, psi):
        """dO(g) psi: B0 K psi - B0 S dB read off one strip solve with data
        (F, psi0) = (-dB, psi), plus dB0."""
        psi = _as_direction(self.profile, psi)
        src, b0_piece = self.derivative_sources(psi)
        fld = self.op.solve(F=-src, psi0=psi, rtol=self.rtol)
        return b0_trace(self.coeffs, fld) + b0_piece

    # -- reports on the solved field -----------------------------------------

    def margin(self):
        """Pointwise Re[w_g + k_g] on the interface.

        w_g is the boundary weight of the solved field, k_g the ellipticity
        ratio alpha(g)/a22(g) at y = 0; positivity of the infimum is the gate
        for parabolic well-posedness of the interface motion.
        """
        p = self.profile
        w_g = self.upsilon().dy_trace0() / (p.nu + p.g)
        c = self.coeffs
        k_g = c.alpha_floor[:, 0, :] / c.a22[:, 0, :]
        return w_g + k_g

    def admissibility(self):
        """Membership tests for the evolution's well-posedness neighborhoods.

        The primary gate combines the boundary weight of the solved field
        with the coefficient ratio:  margin = inf over nodes and components
        of Re[w_g + k_g] with w_g = (d/dy K(g)g)|_{y=0} / (nu+g) and
        k_g = alpha(g)/a22(g) at the boundary.  The interface-neighborhood
        test (normal derivative of the full-datum solution against the
        curvature-type bound k_f) is evaluated on the unshifted problem and
        reported; it is a report, not a gate — with the far-field datum
        outside ker(A) the inequality can fail even at the trivial profile,
        so only the margin gates the stepper.
        """
        p = self.profile
        total = self.margin()
        margin = float(np.min(total))
        arg = np.unravel_index(np.argmin(total), total.shape)

        # interface-neighborhood check on the full boundary datum nu*1 + g,
        # solved without the spectral shift (the neighborhood is defined by
        # the plain problem)
        op0 = (self.op if self.mu == 0.0
               else DiscreteStripOperator(p, self.A, 0.0, ny=self.op.ny))
        u_f = op0.solve(psi0=(p.nu + p.g), rtol=self.rtol)
        dyu_phys = -u_f.dy_trace0() / p.h[:, None]
        k_f = p.h ** 2 / ((1.0 + p.h + p.h_x ** 2) * (1.0 + p.h_x ** 2))
        vnu_gap = float(np.min(k_f[:, None] - dyu_phys))
        return AdmissibilityReport(
            in_W1=bool(margin > 0), margin=margin,
            in_Vnu=bool(vnu_gap > 0 and np.min(p.h) > 0),
            vnu_gap=vnu_gap, margin_argmin=float(p.x[arg[0]]))

    def _freeze_point(self, x0):
        """Index of the grid node x0.

        For m > 1 the frozen principal coefficients must be equal across
        components at that node (otherwise the scalar a12/a22 reduction
        behind the exact-root algebra does not apply, and we refuse rather
        than silently commit the non-commuting error).
        """
        p = self.profile
        i0 = int(np.argmin(np.abs(p.x - x0)))
        if abs(p.x[i0] - x0) > 1e-9 * p.L:
            raise FreezePointError(f"freeze point {x0} is not a grid node "
                                   f"(nearest: {p.x[i0]:.12g})")
        for name, vec in (("nu+g", p.nu + p.g[i0]), ("g_x", p.g_x[i0])):
            spread = np.max(np.abs(vec - vec[0]))
            if spread > 1e-10 * (1.0 + np.max(np.abs(vec))):
                raise FreezePointError(
                    f"components of {name} differ at the freeze node "
                    f"x = {p.x[i0]:.6g} (index {i0}, spread {spread:.3e}); "
                    f"the frozen diagnostics need equal components")
        return i0

    def frozen_coefficients(self, x0):
        """Principal coefficients a12, a22 of the flattening at the boundary
        grid node x0, with this mu."""
        return self._frozen_coefficients(self._freeze_point(x0))

    def _frozen_coefficients(self, i0):
        c = self.coeffs
        return FrozenCoefficients(a12=c.a12[i0, 0, 0], a22=c.a22[i0, 0, 0],
                                  A=self.A, mu=self.mu)

    def frozen_set(self, x0):
        """Freeze the derivative pieces at the boundary point (x0, 0).

        x0 must be a grid node, with equal components there when m > 1
        (see _freeze_point).  Each node is built once per operator: the
        set is kept and returned again for any x0 on the same node.
        """
        i0 = self._freeze_point(x0)
        if i0 not in self._frozen:
            self._frozen[i0] = self._build_frozen_set(i0)
        return self._frozen[i0]

    def _build_frozen_set(self, i0):
        p = self.profile
        fc = self._frozen_coefficients(i0)
        b10, b20 = self.coeffs.b10[i0, 0], self.coeffs.b20[i0, 0]
        ks = torus_wavenumbers(p.L, p.nx)
        # derivative_sources' chain rule at the freeze node, per component,
        # psi = e^{ikx} entering by its symbols: the interior source keeps
        # its y-profile per wavenumber (the third piece needs it resolved in
        # depth, or the cancellation against the boundary piece is lost),
        # and the boundary piece is O20's diagonal
        ik = 1j * ks[:, None, None]
        src, sym20_diag = self._pieces(i0, p.nu + p.g[i0], p.g_x[i0],
                                       p.g_xx[i0], 1.0, ik, ik ** 2)
        eyem = np.eye(p.m)
        sym10 = ((1j * b10 * ks)[:, None, None] * eyem
                 + b20 * strip_trace_gradient_map(fc, ks))
        sym20 = sym20_diag[:, :, None] * eyem
        # column c of each symbol answers a source in component c alone
        cols = np.einsum("kyc,cd->kcyd", src, eyem)
        sym30 = -b20 * strip_profile_response(fc, ks, cols,
                                              self.op.Dy).transpose(0, 2, 1)
        return FrozenOperatorSet(
            x0=float(p.x[i0]), k_grid=ks, sym10=sym10, sym20=sym20,
            sym30=sym30, L=p.L, mu=self.mu)


def operator_for(profile, A, mu, ny=33, rtol=1e-11, dtn=None):
    """The DtNOperator of profile: dtn when given, else a new one.

    A given dtn must have been built for this profile object with the same
    mu, ny and rtol, so that its cached K(g)g solve is the one asked for.
    """
    if dtn is None:
        return DtNOperator(profile, A, mu, ny=ny, rtol=rtol)
    if dtn.profile is not profile or (dtn.mu, dtn.op.ny, dtn.rtol) != (
            float(mu), ny, rtol):
        raise ValueError("dtn was not built for this profile with the "
                         "given mu, ny and rtol")
    return dtn


def dtn_apply(profile, A, mu_solve, ny=33):
    """O(g) = B0(g) K(g) g, the (nx, m) trace."""
    return DtNOperator(profile, A, mu_solve, ny=ny).apply()


def dtn_derivative(profile, A, psi, mu_solve=4.0, ny=33):
    """dO(g) psi by the three-piece formula."""
    return DtNOperator(profile, A, mu_solve, ny=ny).derivative(psi)


# -- frozen operators --------------------------------------------------------


@dataclass
class FrozenOperatorSet:
    """Fourier-multiplier models of the derivative pieces at a freeze point.

    Symbols are stacked per torus wavenumber: sym10[i] is the m-by-m symbol
    of the frozen first piece at wavenumber k_grid[i], etc.  sym0, the
    symbol of O0 = O10 + O20 + O30, is their sum, formed on build.
    """
    x0: float
    k_grid: np.ndarray
    sym10: np.ndarray
    sym20: np.ndarray
    sym30: np.ndarray
    L: float
    mu: float
    sym0: np.ndarray = field(init=False)

    def __post_init__(self):
        self.sym0 = self.sym10 + self.sym20 + self.sym30

    @property
    def m(self):
        return self.sym0.shape[-1]

    def symbols(self, name):
        return {"O10": self.sym10, "O20": self.sym20,
                "O30": self.sym30, "O0": self.sym0}[name]

    def apply(self, name, trace):
        """Apply one frozen operator to a trace; a real trace gives a real
        result, the rounding-level imaginary part of the ifft dropped."""
        vals = as_inexact(trace)
        if vals.ndim == 1:
            vals = vals[:, None]
        vhat = fft(vals, axis=0)
        out = ifft(np.einsum("kij,kj->ki", self.symbols(name), vhat), axis=0)
        return out if np.iscomplexobj(vals) else out.real


def frozen_set(profile, A, x0, mu, ny=33, rtol=1e-11, dtn=None):
    """Frozen-coefficient models of dO(g) at the grid node x0; see
    DtNOperator.frozen_set (dtn as in operator_for)."""
    return operator_for(profile, A, mu, ny, rtol, dtn).frozen_set(x0)


# -- sector / admissibility / localization reports ---------------------------


@dataclass
class OperatorSectorEntry:
    name: str
    shift: float
    min_re_raw: float
    min_re_shifted: float
    half_angle: float
    passed: bool


@dataclass
class SectorReport:
    entries: dict
    c1: float
    c2: float
    ratio_spread: float
    generates_analytic_semigroup: bool
    passed: bool
    mu0: float


# sector_report's ratio samples, seeded so that reports are reproducible;
# a quarter as many numerical-range samples are drawn per wavenumber
_SECTOR_SAMPLES = 12


def sector_report(fset, A, alpha=0.5):
    """Spectral / numerical-range audit of the frozen operator family.

    The first piece and the composite are required to be positive as they
    stand; the zeroth-order pieces O20 and O30 are graded against the shift
    mu0^2 with mu0 = fset.mu (their unshifted real parts change sign with
    the profile, and the generation statement for them is inherently a
    shifted one).  Raw minima are reported alongside so nothing is hidden.
    Also evaluates the two-sided norm ratio of (O0 + mu0^2) between the
    graded trace spaces.
    """
    mu0 = fset.mu
    shift_table = {"O10": 0.0, "O20": mu0 ** 2, "O30": mu0 ** 2, "O0": 0.0}
    rng = np.random.default_rng(0)
    entries = {}
    for name, shift in shift_table.items():
        sym = fset.symbols(name)
        nk, m, _ = sym.shape
        eigs_raw = np.linalg.eigvals(sym).ravel()
        eigs = eigs_raw + shift
        # numerical-range samples catch non-normal blocks that eigenvalues miss
        pts = eigs
        if m > 1:
            shifted = sym + shift * np.eye(m)[None]
            d = rng.standard_normal((nk, _SECTOR_SAMPLES // 4, 2, m))
            v = (d[:, :, 0] + 1j * d[:, :, 1])[..., None]     # (nk, n, m, 1)
            vh = np.swapaxes(v.conj(), -1, -2)
            z = (vh @ (shifted[:, None] @ v)) / (vh @ v)
            pts = np.concatenate([eigs, z.ravel()])
        scale = max(np.max(np.abs(eigs)), 1e-30)
        pts = pts[np.abs(pts) > 1e-12 * scale]
        half_angle = np.max(np.abs(np.angle(pts))) if pts.size else 0.0
        min_re_shifted = float(np.min(np.real(eigs)))
        passed = min_re_shifted > 0.0 and half_angle < np.pi / 2 + 0.1
        entries[name] = OperatorSectorEntry(
            name=name, shift=float(shift),
            min_re_raw=float(np.min(np.real(eigs_raw))),
            min_re_shifted=min_re_shifted,
            half_angle=float(half_angle), passed=bool(passed))

    # two-sided ratio of (O0 + mu0^2) from second- to first-order trace norms
    nx = fset.k_grid.size
    m = fset.m
    evaluator = InterpNormEvaluator(A, alpha)
    ratios = []
    for _ in range(_SECTOR_SAMPLES):
        u = random_trace(rng, nx, m)
        out = fset.apply("O0", u) + mu0 ** 2 * u
        fu = SampledFunction(fset.L, u)
        fout = SampledFunction(fset.L, out)
        denom = h2alpha_norm(fu, alpha, evaluator=evaluator)
        numer = h1alpha_norm(fout, alpha, evaluator=evaluator)
        ratios.append(numer / denom)
    c1, c2 = float(min(ratios)), float(max(ratios))
    all_pass = all(e.passed for e in entries.values())
    return SectorReport(entries=entries, c1=c1, c2=c2,
                        ratio_spread=float(c2 / c1),
                        generates_analytic_semigroup=bool(all_pass),
                        passed=bool(all_pass), mu0=float(mu0))


@dataclass
class AdmissibilityReport:
    in_W1: bool
    margin: float
    in_Vnu: bool
    vnu_gap: float
    margin_argmin: float


def admissibility(profile, A, mu=4.0, ny=33, rtol=1e-11, dtn=None):
    """Well-posedness neighborhood tests of a profile; see
    DtNOperator.admissibility (dtn as in operator_for)."""
    return operator_for(profile, A, mu, ny, rtol, dtn).admissibility()


@dataclass
class LocalizationReport:
    delta: float
    centers: np.ndarray
    residuals: np.ndarray
    max_residual: float


def localization_residual(profile, A, delta, direction, mu=4.0, ny=33,
                          alpha=0.5, rtol=1e-11, dtn=None, d_op=None):
    """Patchwise distance between dO(g) and its frozen models.

    A partition of unity with ~1/delta raised-cosine bumps is laid on the
    torus; patch j measures  phi_j * [dO(g) - O0(x_j)] direction  in the
    graded first-order trace norm.  The residual field compares the
    variable-coefficient operator with the model frozen at the patch
    center before any cutoff is applied, so it isolates the
    coefficient-freezing error: the shifted operator's kernel is
    exponentially localized, and shrinking delta must shrink the worst
    patch residual (a cutoff inside the nonlocal operator would instead be
    dominated by the commutator with phi_j, which grows as patches shrink).
    dtn is as in operator_for.  d_op, when given, is
    dtn.derivative(direction) already computed; it does not depend on
    delta, so a sweep over delta solves for it once.
    """
    p = profile
    direction = _as_direction(p, direction)
    n_pieces = max(1, int(round(1.0 / delta)))
    centers, phis = partition_of_unity(p.x, p.L, n_pieces)
    dtn = operator_for(p, A, mu, ny, rtol, dtn)
    if d_op is None:
        d_op = dtn.derivative(direction)
    evaluator = dtn.evaluator(alpha)
    residuals = np.empty(n_pieces)
    snapped = np.empty(n_pieces)
    for j in range(n_pieces):
        node = p.x[int(np.argmin(np.abs(p.x - centers[j])))]
        snapped[j] = node
        frozen_val = dtn.frozen_set(node).apply("O0", direction)
        diff = SampledFunction(p.L, phis[j][:, None] * (d_op - frozen_val))
        residuals[j] = h1alpha_norm(diff, alpha, evaluator=evaluator)
    return LocalizationReport(delta=float(delta), centers=snapped,
                              residuals=residuals,
                              max_residual=float(np.max(residuals)))
