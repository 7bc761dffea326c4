"""Reference computations for the benchmark, written against numpy only.

The benchmark draws its inputs and computes its oracle values here rather
than through ``spinlattice``, so that a change to the library cannot change
the inputs it is measured on, nor the answers it is checked against.
"""

import numpy as np


def complex_gaussian(rng, rows, cols):
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def signature(m):
    """J = diag(I_m, -I_m)."""
    return np.diag(np.r_[np.ones(m), -np.ones(m)]).astype(complex)


def full_range(a, b, tol=1e-8):
    """Popov-Belevitch-Hautus test: [a - z I, b] has full row rank at every
    eigenvalue z of a.  Unlike a Krylov rank test it does not degrade as the
    powers a^k b grow apart in scale."""
    eye = np.eye(a.shape[0])
    scale = max(1.0, np.linalg.norm(np.hstack([a, b]), 2))
    return all(
        np.linalg.svd(np.hstack([a - z * eye, b]), compute_uv=False)[-1]
        > tol * scale
        for z in np.linalg.eigvals(a)
    )


def random_triple(rng, order, m, h_scale, inv_norm_max, avoid=0.05,
                  max_tries=2000):
    """Random admissible triple (alpha, theta1, theta2) with sigma0 = I.

    alpha = h_scale H + (i/2)(theta1 theta1* + theta2 theta2*), H Hermitian,
    satisfies alpha - alpha* = i Lambda0 Lambda0* by construction.  Draws are
    redrawn until both theta blocks are full range, ||alpha^{-1}|| is at most
    ``inv_norm_max`` and the spectrum keeps ``avoid`` away from 0 and +/-i.
    """
    for _ in range(max_tries):
        theta1 = complex_gaussian(rng, order, m)
        theta2 = complex_gaussian(rng, order, m)
        h = complex_gaussian(rng, order, order)
        alpha = h_scale * (h + h.conj().T) / 2 + 0.5j * (
            theta1 @ theta1.conj().T + theta2 @ theta2.conj().T)
        if np.linalg.norm(np.linalg.inv(alpha), 2) > inv_norm_max:
            continue
        eigs = np.linalg.eigvals(alpha)
        if min(np.abs(eigs).min(), np.abs(eigs - 1j).min(),
               np.abs(eigs + 1j).min()) < avoid:
            continue
        if not (full_range(alpha, theta1) and full_range(alpha, theta2)):
            continue
        return alpha, theta1, theta2
    raise RuntimeError(f"no admissible triple of order {order} in "
                       f"{max_tries} draws")


def lattice_spins(alpha, theta1, theta2, n_max, cond_limit):
    """Spins S_0..S_{n_max-1} of a sigma0 = I triple, or None when
    cond(Sigma_{n_max}) exceeds ``cond_limit`` (Sigma_n grows with n).

    Lambda_{n+1} = Lambda_n + i alpha^{-1} Lambda_n J,
    Sigma_{n+1} = Sigma_n + alpha^{-1}(Sigma_n + Lambda_n J Lambda_n*)alpha^{-*},
    S_n = J + Xi_n - Xi_{n+1} with Xi_n = Lambda_n* Sigma_n^{-1} Lambda_n.
    """
    j = signature(theta1.shape[1])
    a_inv = np.linalg.inv(alpha)
    lams = [np.hstack([theta1, theta2])]
    sigmas = [np.eye(alpha.shape[0], dtype=complex)]
    for _ in range(n_max):
        lam, sigma = lams[-1], sigmas[-1]
        sigma = sigma + a_inv @ (sigma + lam @ j @ lam.conj().T) @ a_inv.conj().T
        sigmas.append((sigma + sigma.conj().T) / 2)
        lams.append(lam + 1j * a_inv @ lam @ j)
    if not np.linalg.cond(sigmas[-1]) <= cond_limit:
        return None
    lams = np.array(lams)
    xi = lams.conj().transpose(0, 2, 1) @ np.linalg.solve(np.array(sigmas), lams)
    spins = j + xi[:-1] - xi[1:]
    return list((spins + spins.conj().transpose(0, 2, 1)) / 2)


def weyl_realization(alpha, theta1, theta2):
    """Realization (gamma, v1, v2) of the Weyl function of a sigma0 = I
    triple: phi(lam) = i v1* (lam I - gamma)^{-1} v2, gamma = alpha - i theta2 theta2*."""
    return alpha - 1j * theta2 @ theta2.conj().T, theta1, theta2


def similarity(rng, gamma, v1, v2):
    """(T gamma T^{-1}, T^{-*} v1, T v2) for T = Q diag(d), Q Haar-unitary and
    d uniform on [0.5, 2]: cond(T) <= 4, and phi is unchanged."""
    order = gamma.shape[0]
    q, _ = np.linalg.qr(complex_gaussian(rng, order, order))
    t = q * rng.uniform(0.5, 2.0, order)
    t_inv = np.linalg.inv(t)
    return t @ gamma @ t_inv, t_inv.conj().T @ v1, t @ v2


def circle(c_re, c_im, radius, count):
    """The points of the CLI's ``--lambda-grid c_re,c_im,r,k``."""
    center = complex(c_re, c_im)
    return [center + radius * np.exp(2j * np.pi * k / count)
            for k in range(count)]


def phi(gamma, v1, v2, points):
    """phi(lam) = i v1* (lam I - gamma)^{-1} v2 at each of ``points``."""
    eye = np.eye(gamma.shape[0], dtype=complex)
    shifted = np.array([lam * eye - gamma for lam in points])
    return list(1j * v1.conj().T @ np.linalg.solve(shifted, v2))


def matrix_obj(a):
    return [[{"re": float(z.real), "im": float(z.imag)} for z in row]
            for row in np.atleast_2d(a)]


def matrix_from_obj(obj):
    return np.array([[complex(z["re"], z["im"]) for z in row] for row in obj])


def rel_err(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))
