"""Finite-difference derivative oracle, independent of the jet arithmetic.

Central differences with Richardson extrapolation, evaluated in mpmath
working precision so the small step stays meaningful at derivative order 6.
"""

import mpmath as mp


def fd_derivative(f, t, n, h=None, dps=60):
    """n-th derivative of f at t by Richardson-extrapolated central differences."""
    with mp.workdps(dps):
        t = mp.mpf(t)
        if h is None:
            h = mp.mpf(10) ** -4 * max(1, abs(t))
        else:
            h = mp.mpf(h)

        def central(hh):
            total = mp.mpf(0)
            for i in range(n + 1):
                offset = (mp.mpf(n) / 2 - i) * hh
                total += (-1) ** i * mp.binomial(n, i) * f(t + offset)
            return total / hh ** n

        d1, d2 = central(h), central(h / 2)
        return float((4 * d2 - d1) / 3)


def mp_profile(family, A=None, c=None):
    """The closed radial families as mpmath callables of t."""
    if family == "logball":
        return lambda t: -mp.log(1 - mp.e ** t) / A
    if family == "linear":
        return lambda t: c * mp.e ** t
    if family == "logaffine":
        return lambda t: -mp.log(1 + c * mp.e ** t) / A
    raise ValueError(family)



def mp_momentum(F, t, dps=40):
    """x = F'(t) and the x-derivatives phi^(k)(x), k = 0..4, of the momentum
    profile phi(x) = F''(t), in mpmath.

    F is the profile F_t as an mpmath callable.  Its Taylor polynomial of
    degree 6 at t comes from ``mp.diff``, and d/dx = (1/F'') d/dt is taken by
    ``mp.diff`` of that polynomial, whose first six derivatives at t are F's.
    """
    with mp.workdps(dps):
        taylor = [mp.diff(F, mp.mpf(t), k) / mp.factorial(k) for k in range(7)]

        def poly(n):    # the n-th derivative of the Taylor polynomial, in s = t' - t
            coeffs = [mp.ff(k, n) * c for k, c in enumerate(taylor)][n:]
            return lambda s: mp.polyval(coeffs[::-1], s)

        M = poly(2)
        phi = [M]
        for _ in range(4):
            phi.append(lambda s, u=phi[-1]: mp.diff(u, s) / M(s))
        return poly(1)(0), [u(0) for u in phi]


def mp_report(x, phi, base, d0, dps=40):
    """a1, a2 and the four invariants of the fibered metric at fiber coordinate
    x, in mpmath, from ``mp_momentum``'s phi^(k)(x) and ``mp.diff`` in x.

    The momentum profile is its Taylor polynomial of degree 4 at x, whose
    first four derivatives are the ones the fields read.  No jet and no closed
    momentum profile is used.
    """
    d, lam, c = base.d, mp.mpf(base.twist), d0 * (d0 - 1)
    with mp.workdps(dps):
        taylor = [p / mp.factorial(k) for k, p in reversed(list(enumerate(phi)))]
        mom = lambda y: mp.polyval(taylor, y - x)
        S = lambda y: 1 + lam * y
        W = lambda y: S(y) ** d * y ** (d0 - 1)
        G = lambda y: W(y) * mom(y)
        sigma = lambda y: mp.diff(G, y) / W(y)
        chi = lambda y: -mp.diff(G, y, 2) / W(y) + c / y
        m, sv, w = phi[0], S(x), W(x)
        sig, sig_p, ch, ch_p = sigma(x), mp.diff(sigma, x), chi(x), mp.diff(chi, x)
        phichi_x = phi[1] * ch_p + m * mp.diff(chi, x, 2)      # (mom chi')'
        div_wphichi = mp.diff(W, x) * m * ch_p / w + phichi_x   # (w mom chi')'/w
        lap_couple = lam * mp.diff(lambda y: S(y) ** (d - 2) * y ** (d0 - 1) * mom(y), x) / w
        phi_shift_p = mp.diff(lambda y: mom(y) / S(y), x)
        phi_x_p = mp.diff(lambda y: mom(y) / y, x)

        k0, a1b, a2b = mp.mpf(base.scalar), mp.mpf(base.a1), mp.mpf(base.a2)
        couple = (4 * d * lam ** 2 * phi_shift_p ** 2
                  + 2 * d * (d + 1) * lam ** 4 * m ** 2 / sv ** 4)
        out = {
            "scalar": k0 / sv + ch,
            "ric2": ((base.ric2 - 2 * lam * sig * k0 + d * lam ** 2 * sig ** 2) / sv ** 2
                     + sig_p ** 2),
            "lapk": base.lapk / sv ** 2 - lap_couple * k0 + div_wphichi,
            "riem2": (base.riem2 / sv ** 2 - 4 * lam ** 2 * m * k0 / sv ** 3 + couple
                      + phi[2] ** 2),
            "a1": a1b / sv + ch / 2,
            "a2": (a2b / sv ** 2 + (ch / (2 * sv) + lam ** 2 * m / sv ** 3) * a1b
                   + (8 * phichi_x + 8 * (d * lam / sv) * m * ch_p + 3 * ch ** 2
                      - 4 * sig_p ** 2 + phi[2] ** 2 - 4 * d * lam ** 2 * sig ** 2 / sv ** 2
                      + couple) / 24),
        }
        if d0 > 1:
            out["ric2"] += (d0 - 1) * ((sig - d0) / x) ** 2
            out["riem2"] += (d0 - 1) * (4 * d * lam ** 2 * (m / (x * sv)) ** 2
                                        + 4 * phi_x_p ** 2
                                        + 2 * d0 * ((m - x) / x ** 2) ** 2)
            out["a2"] += (d0 - 1) * (m * ch_p / x / 3
                                     + (d * lam ** 2 * m ** 2 / (x * sv) ** 2 + phi_x_p ** 2
                                        + d0 * (m - x) ** 2 / (2 * x ** 4)
                                        - ((sig - d0) / x) ** 2) / 6)
        return out
