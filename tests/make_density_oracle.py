"""Write ``density_oracle.json``: f, f' and f_alpha of the standard symmetric
stable law to 30 significant digits at 41 (x, alpha) points, by mpmath.

    python tests/make_density_oracle.py

The points are four per alpha in {0.5, 0.7, 0.9, 1, 1.1, 1.25, 1.5, 1.7,
1.9, 2}, at 0.3, 0.95, 1.05 and 1.8 times ``stable_core._crossover(alpha)``,
so each alpha has two points on the Fourier-inversion route and two on the
tail series, and x = 10.5 at alpha = 2, where the asymptotic f_alpha series
would be 1.8e-8 relative off.  The package places the points only; the
values come from mpmath alone.

Each value is the inversion integral f(x) = (1/pi) Re int_0^inf
exp(i x t - t^alpha) dt (and its x- and alpha-derivatives, with the factors
i t and -t^alpha log t) on the ray t = s exp(i theta), 0 < theta <
pi/(2 alpha), where the integrand decays exponentially and barely
oscillates.  Cauchy's theorem makes the integral the same for every such
theta; the script computes it at theta = pi/(4 alpha) and pi/(3 alpha) at 120
digits (f(23.4; 2) = 1.3e-60 cancels about 60 of them) and refuses to write a
value on which the two differ beyond 1e-32 relative.  It takes a few minutes.
"""

import json
import pathlib
import sys

import mpmath

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from stablegof.stable_core import _crossover  # noqa: E402

ALPHAS = ("0.5", "0.7", "0.9", "1", "1.1", "1.25", "1.5", "1.7", "1.9", "2")
SHARES = ("0.3", "0.95", "1.05", "1.8")
# each x a double, written out by repr, so the test reads back the point itself
POINTS = [(a, mpmath.mpf(float(s) * _crossover(float(a)))) for a in ALPHAS for s in SHARES]
POINTS.append(("2", mpmath.mpf("10.5")))
OUT = pathlib.Path(__file__).with_name("density_oracle.json")


def rotated(x, alpha, theta):
    """(f, f', f_alpha) at x >= 0 from the integral on the ray of angle theta."""
    rot = mpmath.expj(theta)

    def integral(factor):
        def g(s):
            t = s * rot
            return factor(t) * mpmath.exp(1j * x * t - t**alpha)

        return mpmath.re(rot * mpmath.quad(g, [0, 1, 4, mpmath.inf])) / mpmath.pi

    return (
        integral(lambda t: 1),
        integral(lambda t: 1j * t),
        integral(lambda t: -(t**alpha) * mpmath.log(t)),
    )


def main():
    rows = []
    with mpmath.workdps(120):
        for a, x in POINTS:
            alpha = mpmath.mpf(a)
            first = rotated(x, alpha, mpmath.pi / (4 * alpha))
            second = rotated(x, alpha, mpmath.pi / (3 * alpha))
            for u, v in zip(first, second):
                if abs(u - v) > mpmath.mpf(10) ** -32 * abs(u):
                    raise SystemExit(f"rays disagree at x={x}, alpha={a}: {u} vs {v}")
            rows.append(
                {"x": repr(float(x)), "alpha": a}
                | {k: mpmath.nstr(v, 30) for k, v in zip(("f", "fp", "fa"), first)}
            )
    OUT.write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    main()
