"""High-precision mode integrals from Lommel's forms in mpmath, for accuracy tests.

j=2 takes Lommel's first and second integrals; j=1 takes the Green-identity
reduction l(l+1) M_1(k, K) = K^2 M_2(k, K) + a^2 K j_l(ka) u_l(Ka), whose
diagonal gives N_1.  The near-diagonal difference in M_2 cancels by about
|K - k| / k, which the working precision absorbs.
"""

import mpmath as mp


def _jl(l, x):
    return mp.sqrt(mp.pi / (2 * x)) * mp.besselj(l + mp.mpf(1) / 2, x)


def mode_integrals(j, l, k, K, a, dps=60):
    """(N_j(|k|), N_j(|K|), M_j(k, K)) as floats, computed at ``dps`` digits."""
    with mp.workdps(dps):
        parity = -1 if l % 2 == 1 and (k < 0) != (K < 0) else 1
        k, K, a = abs(mp.mpf(k)), abs(mp.mpf(K)), mp.mpf(a)
        x, y = k * a, K * a
        jm = {z: _jl(l - 1, z) for z in (x, y)}
        jl = {z: _jl(l, z) for z in (x, y)}
        jp = {z: _jl(l + 1, z) for z in (x, y)}

        def n2(z):
            return a**3 / 2 * (jl[z] ** 2 - jp[z] * jm[z])

        # x j_l'(x) = l j_l(x) - x j_{l+1}(x); the l j_l j_l terms cancel exactly
        m2 = a**3 * (y * jp[y] * jl[x] - x * jp[x] * jl[y]) / (y * y - x * x)
        n_k, n_K, m = n2(x), n2(y), m2
        if j == 1:
            def reduce(alpha, m2, z_j, z_u):
                u = ((l + 1) * jm[z_u] - l * jp[z_u]) / (2 * l + 1)
                return (alpha**2 * m2 + a * a * alpha * jl[z_j] * u) / (l * (l + 1))

            n_k, n_K, m = reduce(k, n_k, x, x), reduce(K, n_K, y, y), reduce(K, m2, x, y)
        return float(n_k), float(n_K), parity * float(m)


def f0_j2(l, k, a, dps=40):
    """f0 = 1 / N_2(|k|) of the j=2 ratio, from Lommel's first integral at ``dps`` digits and the exact product k a.

    Returned as an mpmath number: rounding it to a float would add half an ulp
    to the error it measures.
    """
    with mp.workdps(dps):
        a = mp.mpf(a)
        x = abs(mp.mpf(k)) * a
        return 2 / (a**3 * (_jl(l, x) ** 2 - _jl(l + 1, x) * _jl(l - 1, x)))


def f2_j2(l, k, a, mu_omega, dps=160):
    """f2 of the j=2 ratio N_2(K) / M_2(k, K)^2 = f0 + f1 chi + f2 chi^2 + ..., K^2 = k^2 - chi mu_omega.

    A central second difference in chi with step h = 10^(-dps/4) k^2 / mu_omega,
    from Lommel's forms at ``dps`` digits, independent of the quartic of
    ``theorems.expansion_j2``.  Truncation is near h^2.  Rounding loses
    about dps/4 digits in M_2's difference and log10(f0 / (f2 h^2)) more in
    the second difference (h in units of k^2 / mu_omega): at l = 10,
    k a = 1e-3 that leaves about 20 of the default 160 digits.
    """
    with mp.workdps(dps):
        k, a, mw = abs(mp.mpf(k)), mp.mpf(a), mp.mpf(mu_omega)
        x = k * a

        def n2(z):
            return a**3 / 2 * (_jl(l, z) ** 2 - _jl(l + 1, z) * _jl(l - 1, z))

        def ratio(chi):
            y = mp.sqrt(k * k - chi * mw) * a
            m2 = a**3 * (y * _jl(l + 1, y) * _jl(l, x) - x * _jl(l + 1, x) * _jl(l, y)) / (y * y - x * x)
            return n2(y) / m2**2

        h = mp.mpf(10) ** (-dps // 4) * k * k / mw
        return float((ratio(h) - 2 / n2(x) + ratio(-h)) / (2 * h * h))
