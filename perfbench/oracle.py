"""Independent correctness oracle for the CLI's CSV rows.

Built on scipy alone (the noncentral chi-square CDF and quantile
`chndtr`/`chndtrix`, `lambertw`, `j0` and `quad`), never on paharq, so a
defect in the package cannot hide itself.  Tolerances are fixed here and
are not tuned to the outputs:

* a numeric optimum's average power must match the oracle objective at the
  reported p1 within OBJECTIVE_TOL_DB, the optimizer's own tolerance, and
  p1 must not be beaten by the powers NEIGHBOUR_DB to either side by more
  than NEIGHBOUR_RTOL.  That is the finest optimality the package's
  objective can resolve: `avg_power_given_p1` returns a value whose
  quadrature error estimate may reach 1e-6 of it, and a minimizer of an
  objective known to within d stops within 2 d of the true minimum.  A
  neighbour that wins by less (but by more than STRICT_NEIGHBOUR_RTOL,
  beyond the oracle's own quadrature noise) marks the row FLAT_OPTIMUM:
  recorded and counted, not a failure;
* a closed-form optimum must match the lower-branch Lambert W formula,
  and a fig5 row's sigma the Jakes model, within CLOSED_RTOL (two
  double-precision evaluations of one formula through different code);
* elementary closed forms (single-shot power and outage, open-loop
  average power) must match within FORMULA_RTOL;
* two quadratures of one exact quantity must agree within EXACT_RTOL;
* a Monte Carlo estimate must lie within Z_LIMIT standard errors of the
  oracle's exact reference.

Each row gets one status.  An error row is expected only where the oracle
says no value exists (the closed-form optimum outside its domain).  Rows
carrying a value whose own 3-SE gate fired are gate failures, not failed
points, as long as the oracle's check passes; the documented open-loop
polynomial mismatches are the known source of them.
"""

import math

from scipy import integrate, special

OBJECTIVE_TOL_DB = 1e-3
NEIGHBOUR_DB = 0.01
NEIGHBOUR_RTOL = 2e-6
STRICT_NEIGHBOUR_RTOL = 1e-9
CLOSED_RTOL = 1e-9
EXACT_RTOL = 1e-6
FORMULA_RTOL = 1e-12
Z_LIMIT = 5.0
QUAD_RTOL = 1e-10
G_MAX = 50.0            # the objective's documented integration cut-off
SIGMA_MIN = 1e-3        # the package's documented floor on sigma

OK = "ok"
EXPECTED_ERROR = "expected_error"
GATE_FAIL = "gate_fail"
FLAT_OPTIMUM = "flat_optimum"
UNEXPECTED_ERROR = "unexpected_error"
WRONG = "wrong"
FAILING = (UNEXPECTED_ERROR, WRONG)


class Mismatch(Exception):
    """An oracle check failed; the message says which and by how much."""


def theta(rate: float) -> float:
    return math.expm1(rate)


def theta1(rate: float) -> float:
    return 2.0 * math.expm1(0.5 * rate)


def _noncentrality(g1: float, sigma: float) -> float:
    return 2.0 * g1 * (1.0 - sigma * sigma) / (sigma * sigma)


def exact_quantile(eps: float, g1: float, sigma: float) -> float:
    """eps-quantile of g2 given g1: (sigma^2/2) * chi'^2_2(nc) quantile."""
    return 0.5 * sigma * sigma * float(
        special.chndtrix(eps, 2.0, _noncentrality(g1, sigma)))


def cond_cdf(x: float, g1: float, sigma: float) -> float:
    """P(g2 <= x | g1)."""
    if x <= 0.0:
        return 0.0
    return float(special.chndtr(2.0 * x / (sigma * sigma), 2.0,
                                _noncentrality(g1, sigma)))


def _quad(f, hi: float, points=None) -> float:
    val, _ = integrate.quad(f, 0.0, hi, epsabs=0.0, epsrel=QUAD_RTOL,
                            limit=400, points=points)
    return val


def objective(p1: float, protocol: str, rate: float, eps: float,
              sigma: float) -> float:
    """p1 + E[P2(g1); round one fails] with the exact quantile rule."""
    th = theta(rate)

    def integrand(x):
        gap = th - x * p1
        num = gap if protocol == "rtd" else gap / (1.0 + x * p1)
        return math.exp(-x) * num / exact_quantile(eps, x, sigma)

    return p1 + _quad(integrand, min(th / p1, G_MAX))


def asymptotic_objective(p1: float, protocol: str, rate: float, eps: float,
                         sigma: float) -> float:
    """The same expectation under the small-quantile rule, whose INR
    numerator uses the Jensen threshold floored at zero."""
    th = theta(rate) if protocol == "rtd" else theta1(rate)
    s2 = sigma * sigma
    scale = s2 * -math.log1p(-eps)
    return p1 + _quad(lambda x: math.exp(-x / s2) * (th - x * p1) / scale,
                      th / p1)


def closed_form(protocol: str, rate: float, eps: float, sigma: float):
    """(p1, avg_power) of the closed-form optimum, or None outside its domain.

    p1 = -m th / (W_{-1}((m^2/c - 1)/e) + 1), m = 1/sigma^2,
    c = -1/(sigma^2 log(1-eps)); defined only for m^2/c < 1.
    """
    m = 1.0 / (sigma * sigma)
    c = -1.0 / (sigma * sigma * math.log1p(-eps))
    ratio = m * m / c
    if ratio >= 1.0:
        return None
    th = theta(rate) if protocol == "rtd" else theta1(rate)
    w = special.lambertw((ratio - 1.0) / math.e, k=-1).real
    p1 = -m * th / (w + 1.0)
    return p1, asymptotic_objective(p1, protocol, rate, eps, sigma)


def open_loop_outage(P: float, rate: float, sigma: float,
                     protocol: str) -> float:
    """P(round two fails | round one failed) with equal power P."""
    th = theta(rate)
    u = th / P
    if protocol == "rtd":
        arg = lambda x: u - x
    else:
        arg = lambda x: (th - x * P) / ((1.0 + x * P) * P)
    val = _quad(lambda x: math.exp(-x) * cond_cdf(arg(x), x, sigma), u)
    return val / -math.expm1(-u)


def geometry_sigma(v_kmh: float, d_a_wavelengths: float, delta: float,
                   f_c: float) -> float:
    """Jakes mismatch sqrt(1 - J0(2 pi d / lambda)^2), clamped."""
    wavelength = 299792458.0 / f_c
    d = abs(d_a_wavelengths * wavelength - v_kmh / 3.6 * delta)
    j = float(special.j0(2.0 * math.pi * d / wavelength))
    return min(max(math.sqrt(max(1.0 - j * j, 0.0)), SIGMA_MIN), 1.0)


# ---------------------------------------------------------------------------
# row checks
# ---------------------------------------------------------------------------

def _num(row: dict, key: str):
    raw = row.get(key, "")
    return float(raw) if raw != "" else None


def _close(name: str, value: float, reference: float, rtol: float) -> None:
    if not abs(value - reference) <= rtol * abs(reference):
        raise Mismatch(f"{name} {value!r} vs oracle {reference!r} "
                       f"(rtol {rtol:g})")


def _within_se(name: str, estimate: float, reference: float,
               se: float) -> None:
    if not abs(estimate - reference) <= Z_LIMIT * se:
        z = abs(estimate - reference) / se if se > 0 else math.inf
        raise Mismatch(f"{name} estimate {estimate!r} is {z:.2f} SE from "
                       f"oracle {reference!r}")


def _binomial_se(p: float, n: float) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _check_numeric(row: dict):
    protocol, rate, eps, sigma = (row["protocol"], _num(row, "rate"),
                                  _num(row, "eps"), _num(row, "sigma"))
    p1, avg = _num(row, "p1"), _num(row, "avg_power")
    f = lambda p: objective(p, protocol, rate, eps, sigma)
    ref = f(p1)
    gap_db = abs(10.0 * math.log10(avg / ref))
    if gap_db > OBJECTIVE_TOL_DB:
        raise Mismatch(f"avg_power {avg!r} is {gap_db:.3g} dB from the "
                       f"oracle objective {ref!r} at p1={p1!r}")
    step = 10.0 ** (NEIGHBOUR_DB / 10.0)
    other, neighbour = min((f(p), p) for p in (p1 / step, p1 * step))
    beaten = f"p1={p1!r} beaten by p1={neighbour!r} ({other!r} < {ref!r})"
    if other < ref * (1.0 - NEIGHBOUR_RTOL):
        raise Mismatch(beaten)
    if other < ref * (1.0 - STRICT_NEIGHBOUR_RTOL):
        return FLAT_OPTIMUM, f"{beaten}, by {1.0 - other / ref:.2g} relative"
    return OK


def _check_closed(row: dict):
    cf = closed_form(row["protocol"], _num(row, "rate"), _num(row, "eps"),
                     _num(row, "sigma"))
    if cf is None:
        if row["error"]:
            return EXPECTED_ERROR
        raise Mismatch("closed-form value reported outside its domain")
    if row["error"]:
        return UNEXPECTED_ERROR
    _close("closed-form p1", _num(row, "p1"), cf[0], CLOSED_RTOL)
    _close("closed-form avg_power", _num(row, "avg_power"), cf[1],
           EXACT_RTOL)
    return OK


def _check_no_retx(row: dict) -> None:
    ref = theta(_num(row, "rate")) / -math.log1p(-_num(row, "eps"))
    _close("no-retx avg_power", _num(row, "avg_power"), ref, FORMULA_RTOL)


def _check_sweep_row(row: dict, config: dict):
    if row["figure"] == "fig5":
        _close("sigma", _num(row, "sigma"),
               geometry_sigma(_num(row, "v_kmh"), _num(row, "d_a_wavelengths"),
                              config["delta"], config["f_c"]), CLOSED_RTOL)
    method = row["method"]
    if method == "closed-form":
        return _check_closed(row)
    if row["error"]:
        return UNEXPECTED_ERROR
    if method == "numeric-exact":
        return _check_numeric(row)
    if method == "no-retx":
        _check_no_retx(row)
    else:
        raise Mismatch(f"unexpected method {method!r}")
    return OK


def _check_fig4_row(row: dict, config: dict):
    if row["error"]:
        return UNEXPECTED_ERROR
    if row["method"] == "no-retx":
        _check_no_retx(row)
        return OK
    P, rate = _num(row, "round_power"), _num(row, "rate")
    _close("open-loop avg_power", _num(row, "avg_power"),
           P * (2.0 - math.exp(-theta(rate) / P)), FORMULA_RTOL)
    exact = open_loop_outage(P, rate, _num(row, "sigma"), row["protocol"])
    _close("outage_exact", _num(row, "outage_exact"), exact, EXACT_RTOL)
    _within_se("outage_mc", _num(row, "outage_mc"), exact,
               _binomial_se(exact, _num(row, "n_denominator")))
    return OK


# the last two compare the paper's open-loop polynomial, not an exact
# quantity, with simulation; their MC estimate is still held to the oracle
_VERIFY_CHECKS = ("closed_loop_conditional_outage", "closed_loop_avg_power",
                  "closed_form_avg_power", "open_loop_outage_exact_vs_mc",
                  "open_loop_avg_power", "no_retx_outage",
                  "open_loop_outage_closed_vs_mc",
                  "open_loop_outage_closed_upper_bound")


def _check_verify_row(row: dict, config: dict):
    check = row["check"]
    ref, est, se = (_num(row, "reference"), _num(row, "estimate"),
                    _num(row, "se"))
    if check not in _VERIFY_CHECKS or est is None:
        return UNEXPECTED_ERROR if row["error"] else OK
    protocol, rate = row["protocol"], _num(row, "rate")
    sigma, eps = _num(row, "sigma"), _num(row, "eps")
    if check == "closed_loop_conditional_outage":
        _close("target", ref, eps, FORMULA_RTOL)
        _within_se(check, est, eps,
                   _binomial_se(eps, _num(row, "n_denominator")))
    elif check in ("closed_loop_avg_power", "closed_form_avg_power"):
        p1 = float(config["p1"])
        fn = objective if check == "closed_loop_avg_power" \
            else asymptotic_objective
        exact = fn(p1, protocol, rate, eps, sigma)
        _close(check, ref, exact, EXACT_RTOL)
        _within_se(check, est, exact, se)
    elif check == "open_loop_avg_power":
        P = _num(row, "round_power")
        exact = P * (2.0 - math.exp(-theta(rate) / P))
        _close(check, ref, exact, FORMULA_RTOL)
        _within_se(check, est, exact, se)
    elif check == "no_retx_outage":
        exact = -math.expm1(-theta(rate) / _num(row, "round_power"))
        _close(check, ref, exact, FORMULA_RTOL)
        _within_se(check, est, exact,
                   _binomial_se(exact, _num(row, "n_trials")))
    else:
        exact = open_loop_outage(_num(row, "round_power"), rate, sigma,
                                 protocol)
        if check == "open_loop_outage_exact_vs_mc":
            _close(check, ref, exact, EXACT_RTOL)
        _within_se(check, est, exact,
                   _binomial_se(exact, _num(row, "n_denominator")))
    return GATE_FAIL if row["error"] else OK


_CHECKERS = {"fig3": _check_sweep_row, "fig5": _check_sweep_row,
             "fig4": _check_fig4_row, "mc-verify": _check_verify_row}


def classify(row: dict, config: dict) -> tuple[str, str]:
    """(status, detail) of one CSV row of a one-point CLI run."""
    try:
        status = _CHECKERS[row["figure"]](row, config)
    except Mismatch as exc:
        return WRONG, str(exc)
    except (TypeError, ValueError, KeyError) as exc:
        return WRONG, f"malformed row: {type(exc).__name__}: {exc}"
    if isinstance(status, tuple):
        return status
    detail = row["error"] if status != OK else ""
    return status, detail
