"""High-precision references for the tests, taken from the definitions.

Standard library and mpmath only, so no engine code enters a reference.
Double inputs convert exactly, and every function works at DPS digits
inside ``mpmath.workdps``; none sets mpmath's global precision.

A selection enters through its weights w_kl at the levels a_k of a diagonal
A: w_kl = conj(c_k) c_l for a pure selection with level amplitudes c, and
w_kl = Pi_kl rho_lk for (rho, Pi) in A's eigenbasis.  With the pointer
overlap G_kl = exp(-g^2 (a_k - a_l)^2 / (8 Delta^2)), N = sum w G and

    delta_q = g sum w (a_k + a_l) / 2 G / N
    delta_p = g sum w i (a_k - a_l) / (4 Delta^2) G / N
"""

import mpmath

DPS = 60


def _mpf(values):
    return [mpmath.mpf(float(x)) for x in values]


def _overlap(ratio, a, b):
    return mpmath.exp(-((ratio * (a - b)) ** 2) / 8)


def pure_weights(c):
    """w_kl = conj(c_k) c_l for the level amplitudes c of a pure selection."""
    with mpmath.workdps(DPS):
        amps = [mpmath.mpc(complex(x)) for x in c]
        return [[mpmath.conj(x) * y for y in amps] for x in amps]


def matrix_weights(rho, pi):
    """w_kl = Pi_kl rho_lk for rho and Pi in the eigenbasis of a diagonal A."""
    d = len(rho)
    with mpmath.workdps(DPS):
        return [[mpmath.mpc(complex(pi[k][l])) * mpmath.mpc(complex(rho[l][k])) for l in range(d)]
                for k in range(d)]


def shifts(levels, weights, g, delta=1.0):
    """(delta_q, delta_p, N) of the selection with these weights."""
    with mpmath.workdps(DPS):
        a, (g, delta) = _mpf(levels), _mpf((g, delta))
        n = q = p = mpmath.mpc(0)
        for k, row in enumerate(weights):
            for l, w in enumerate(row):
                wg = w * _overlap(g / delta, a[k], a[l])
                n += wg
                q += wg * (a[k] + a[l]) / 2
                p += wg * 1j * (a[k] - a[l]) / (4 * delta**2)
        return float((g * q / n).real), float((g * p / n).real), float(n.real)


def moments(levels, weights):
    """(p, A_w, two_sided) = (tr(Pi rho), tr(Pi A rho) / p, tr(Pi A rho A) / p)
    for A = diag(levels)."""
    with mpmath.workdps(DPS):
        a = _mpf(levels)
        terms = [(w, a[k], a[l]) for k, row in enumerate(weights) for l, w in enumerate(row)]
        p = mpmath.fsum(w for w, _, _ in terms)
        a_w = mpmath.fsum(w * al for w, _, al in terms) / p
        two_sided = mpmath.fsum(w * ak * al for w, ak, al in terms) / p
        return float(p.real), complex(a_w), float(two_sided.real)


def pencil(levels, ratio):
    """(bottom, top) of delta_q / Delta over all selections: `ratio` = g / Delta
    times the extreme eigenvalues of the pencil (Q, G), Q_kl = (a_k + a_l) / 2 G_kl."""
    with mpmath.workdps(DPS):
        a, (r,) = _mpf(levels), _mpf((ratio,))
        gram = mpmath.matrix([[_overlap(r, x, y) for y in a] for x in a])
        q = mpmath.matrix([[(x + y) / 2 * _overlap(r, x, y) for y in a] for x in a])
        inv = mpmath.inverse(mpmath.cholesky(gram))
        vals = sorted(mpmath.eigsy(inv * q * inv.T)[0])
        return float(r * vals[0]), float(r * vals[-1])


def pointer_elements(a, a_prime, g, delta):
    """<Phi_a | 1, q, p | Phi_a'> by quadrature, where Phi_a(q) =
    (2 pi Delta^2)^(-1/4) exp(-(q - g a)^2 / (4 Delta^2)) and p = -i d/dq
    acts on the right factor."""
    with mpmath.workdps(DPS):
        a, a_prime, g, delta = _mpf((a, a_prime, g, delta))
        norm = 1 / (mpmath.sqrt(2 * mpmath.pi) * delta)

        def pair(q):
            return norm * mpmath.exp(-((q - g * a) ** 2 + (q - g * a_prime) ** 2) / (4 * delta**2))

        line = [-mpmath.inf, g * (a + a_prime) / 2, mpmath.inf]
        s = mpmath.quad(pair, line)
        q_elem = mpmath.quad(lambda q: q * pair(q), line)
        p_elem = mpmath.quad(lambda q: pair(q) * (q - g * a_prime) / (2 * delta**2), line)
        return float(s), float(q_elem), 1j * float(p_elem)


def mixture_entropy(ratio):
    """h2((1 + G) / 2) in bits at G = exp(-ratio^2 / 8), as an mpf, so that a
    comparison at a few eps does not read its rounding to a double."""
    with mpmath.workdps(DPS):
        overlap = mpmath.exp(-(mpmath.mpf(float(ratio)) ** 2) / 8)
        lam, rest = (1 + overlap) / 2, (1 - overlap) / 2
        return -(lam * mpmath.log(lam) + rest * mpmath.log(rest)) / mpmath.log(2)
