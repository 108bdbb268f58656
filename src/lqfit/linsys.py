"""Linear dynamical systems: representation, simulation, demonstrations.

Everything here works with the discrete-time stochastic system

    x_{t+1} = A x_t + B u_t + w_t,    E[w_t w_t^T] = W,

closed by a linear state-feedback policy u_t = K x_t.  The module provides
the system container, the infinite-horizon average quadratic cost of a gain
(computed through a discrete Lyapunov equation), a Monte-Carlo cost
estimator used as a cross-check, and a generator of noisy "expert"
demonstrations, optionally corrupted by sign-flip outliers; and
``read_input``, the reader of every input file.  Everything runs on numpy
alone.

Conventions: gains are plain (m, n) numpy arrays acting as u = K x; the
closed-loop matrix is A + B K.  An unstable closed loop has infinite
average cost, represented by ``math.inf``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

# Closed loops with spectral radius above this are treated as unstable:
# the Lyapunov iteration is meaningless that close to marginal stability.
STABILITY_MARGIN = 1.0 - 1e-9

_LYAP_TOL = 1e-12
_LYAP_MAX_ITER = 200

# numpy's LAPACK gufuncs, for hot loops whose inputs are already float64
# stacks: numpy.linalg's wrappers around them only check and convert.
_LAPACK = np.linalg._umath_linalg

# Columns per block of the in-place rollout: the scratch space of one
# scan step, n x _SCAN_BLOCK doubles.
_SCAN_BLOCK = 4096


def _as_matrix(M, name: str) -> np.ndarray:
    M = np.array(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got shape {M.shape}")
    if M.shape[1] == 0:
        raise ValueError(f"{name} must have at least one column, got shape "
                         f"{M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} must be finite")
    M.flags.writeable = False
    return M


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.swapaxes(-1, -2))


def _check_symmetric(M: np.ndarray, name: str) -> None:
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.allclose(M, M.T, atol=1e-8 * (1.0 + np.abs(M).max())):
        raise ValueError(f"{name} must be symmetric")


def _check_psd(M: np.ndarray, name: str) -> None:
    _check_symmetric(M, name)
    if _min_eig(M) < -1e-10 * (1.0 + np.linalg.norm(M)):
        raise ValueError(f"{name} must be positive semidefinite")


def _check_count(value, name: str, least: int) -> int:
    """``value`` as an int, if it is an integer (not a bool) >= ``least``."""
    if not (np.issubdtype(type(value), np.integer) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}: {value!r}")
    return int(value)


def _check_real(value, name: str, least: float, strict: bool = False,
                most: float = math.inf) -> float:
    """``value`` as a float, if it is a finite real number (not a bool)
    >= ``least`` (> ``least`` when ``strict``) and <= ``most``."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and value <= most
            and (value > least if strict else value >= least)):
        raise ValueError(f"{name} must be a finite real number "
                         f"{'>' if strict else '>='} {least}"
                         f"{f' and <= {most}' if most < math.inf else ''}: "
                         f"{value!r}")
    return float(value)


# numpy.linalg's message for a failure of each LAPACK gufunc it wraps
_LAPACK_FAILURES = {"inv": "Singular matrix", "solve1": "Singular matrix",
                    "svd_f": "SVD did not converge",
                    "eigh_lo": "Eigenvalues did not converge",
                    "eigvalsh_lo": "Eigenvalues did not converge"}


class _lapack_errors(np.errstate):
    """The error state numpy.linalg's wrappers enter around their gufunc,
    for a block of calls to :data:`_LAPACK`: overflow, division and
    underflow pass silently, and an invalid operation raises LinAlgError.
    A LAPACK failure sets the invalid flag, and the error then carries
    numpy.linalg's message for the routine that failed ("Singular matrix"
    for ``inv``); any other invalid operation in the block raises
    LinAlgError with numpy's own message."""

    __slots__ = ()

    def __init__(self):
        super().__init__(invalid="raise", over="ignore", divide="ignore",
                         under="ignore")

    def __exit__(self, kind, error, traceback):
        super().__exit__(kind, error, traceback)
        if kind is FloatingPointError:
            # numpy says "invalid value encountered in <gufunc>"
            routine = str(error).rpartition(" ")[2]
            raise np.linalg.LinAlgError(
                _LAPACK_FAILURES.get(routine, str(error))) from None


def _lowest(M: np.ndarray) -> float:
    """The least eigenvalue of sym(M), by a raw LAPACK call: the caller
    enters ``_lapack_errors()``."""
    return float(_LAPACK.eigvalsh_lo(_sym(M), signature="d->d").min())


def _min_eig(M: np.ndarray) -> float:
    with _lapack_errors():
        return _lowest(M)


def _psd_factor(M: np.ndarray) -> np.ndarray:
    """Factor L with L L^T = M for symmetric PSD M (tiny negatives clipped)."""
    w, V = np.linalg.eigh(_sym(M))
    return V * np.sqrt(np.maximum(w, 0.0))


@dataclass(frozen=True, eq=False)
class LinearDynamics:
    """A known linear system (A, B) with disturbance covariance W.

    Parameters
    ----------
    A : (n, n) array
        State transition matrix.
    B : (n, m) array
        Input matrix.
    W : (n, n) array
        Disturbance covariance; must be symmetric positive semidefinite
        up to roundoff.
    """

    A: np.ndarray
    B: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _as_matrix(self.A, "A"))
        object.__setattr__(self, "B", _as_matrix(self.B, "B"))
        object.__setattr__(self, "W", _as_matrix(self.W, "W"))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError(f"A must be square, got shape {self.A.shape}")
        if self.B.shape[0] != n:
            raise ValueError(
                f"B must have {n} rows to match A, got shape {self.B.shape}"
            )
        if self.W.shape != (n, n):
            raise ValueError(f"W must be {n}x{n}, got shape {self.W.shape}")
        _check_psd(self.W, "W")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    def closed_loop(self, K: np.ndarray) -> np.ndarray:
        K = np.asarray(K, dtype=float)
        if K.shape != (self.m, self.n):
            raise ValueError(
                f"gain must be {self.m}x{self.n}, got shape {K.shape}"
            )
        return self.A + self.B @ K

    def to_dict(self) -> dict:
        return {"A": self.A.tolist(), "B": self.B.tolist(), "W": self.W.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "LinearDynamics":
        A = np.array(d["A"], dtype=float)
        W = d.get("W")
        if W is None:
            W = np.zeros_like(A)
        return cls(A=A, B=np.array(d["B"], dtype=float), W=np.array(W, dtype=float))


def read_input(path, kind: str, parse):
    """``parse(d)`` of the JSON object ``d`` in ``path``: the one reader of
    input files (systems, demonstrations, gains, experiment configs).

    An OSError passes through unchanged.  Bad JSON, a top-level value that
    is not an object, or a KeyError, TypeError or ValueError from ``parse``
    raises ``ValueError("bad <kind> file <path>: ...")``.
    """
    try:
        with open(path) as f:
            d = json.load(f)
        if not isinstance(d, dict):
            raise ValueError("the top-level JSON value must be an object")
        return parse(d)
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"bad {kind} file {path}: {e}") from e


def _system_from_dict(d: dict):
    dyn = LinearDynamics.from_dict(d)
    n, m = dyn.n, dyn.m
    Q, R, sigma = (_as_matrix(np.eye(k) if d.get(name) is None else d[name],
                              name)
                   for name, k in (("Q", n), ("R", m), ("Sigma", m)))
    for name, M, k in (("Q", Q, n), ("R", R, m), ("Sigma", sigma, m)):
        if M.shape != (k, k):
            raise ValueError(f"{name} must be {k}x{k}")
        _check_psd(M, name)
    if not _min_eig(R) > 0.0:
        raise ValueError("R must be positive definite")
    return dyn, Q, R, sigma


def load_system(path):
    """Read a system file: a JSON object with A, B and optional W, Q, R, Sigma.

    Returns (dynamics, Q, R, Sigma).  W defaults to zero, Q and R to
    identities and Sigma, the expert's input-noise covariance, to the
    identity; a weight given as ``null`` takes its default.  Raises as
    :func:`read_input` does, with ValueError also for a non-finite entry,
    or unless Q is n x n PSD, Sigma m x m PSD and R m x m positive definite.
    """
    return read_input(path, "system", _system_from_dict)


@dataclass(frozen=True, eq=False)
class CostMatrices:
    """Quadratic stage-cost weights (Q, R) with the normalization R >= I.

    Scaling (Q, R) jointly does not change the optimal gain, so R is pinned
    to the closed constraint R >= I; rescale (Q, R) accordingly before
    construction.
    """

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Q", _as_matrix(self.Q, "Q"))
        object.__setattr__(self, "R", _as_matrix(self.R, "R"))
        _check_psd(self.Q, "Q")
        _check_symmetric(self.R, "R")
        if _min_eig(self.R) < 1.0 - 1e-8:
            raise ValueError("R must satisfy R >= I (rescale the cost pair)")


def cost_pair(dyn: LinearDynamics, cost) -> tuple[np.ndarray, np.ndarray]:
    """Accept CostMatrices or a plain (Q, R) pair of arrays for ``dyn``;
    raises ValueError unless Q is n x n and R is m x m."""
    if isinstance(cost, CostMatrices):
        Q, R = cost.Q, cost.R
    else:
        Q, R = (np.asarray(M, dtype=float) for M in cost)
    if Q.shape != (dyn.n, dyn.n) or R.shape != (dyn.m, dyn.m):
        raise ValueError("cost matrix dimensions do not match the system")
    return Q, R


def _noise_cov(dyn: LinearDynamics, Sigma) -> np.ndarray:
    """The input-noise covariance Sigma as an array; raises ValueError,
    naming ``input_noise_cov``, unless Sigma is m x m symmetric PSD."""
    Sigma = np.asarray(Sigma, dtype=float)
    if Sigma.shape != (dyn.m, dyn.m):
        raise ValueError(f"input_noise_cov must be {dyn.m}x{dyn.m} to match "
                         f"the system, got shape {Sigma.shape}")
    _check_psd(Sigma, "input_noise_cov")
    return Sigma


@dataclass(frozen=True, eq=False)
class DemoSet:
    """Expert demonstrations: N state/input pairs (x_i, u_i).

    ``states`` is (N, n) and ``inputs`` is (N, m).  Pairs need not be
    ordered in time and may repeat states with different inputs.
    """

    states: np.ndarray
    inputs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "states", _as_matrix(self.states, "states"))
        object.__setattr__(self, "inputs", _as_matrix(self.inputs, "inputs"))
        if self.states.shape[0] != self.inputs.shape[0]:
            raise ValueError(
                f"states and inputs must have the same length, got "
                f"{self.states.shape[0]} and {self.inputs.shape[0]}"
            )
        if self.states.shape[0] < 1:
            raise ValueError("need at least one demonstration")

    def __len__(self) -> int:
        return self.states.shape[0]

    def cached(self, make):
        """``make(self)``, computed on the first call with ``make`` and kept
        with the demonstrations.  The arrays are read-only copies, so a
        kept value cannot go stale."""
        cache = self.__dict__.setdefault("_cache", {})
        if make not in cache:
            cache[make] = make(self)
        return cache[make]

    def to_dict(self) -> dict:
        return {"states": self.states.tolist(), "inputs": self.inputs.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "DemoSet":
        return cls(states=np.array(d["states"], dtype=float),
                   inputs=np.array(d["inputs"], dtype=float))


def spectral_radius(M: np.ndarray) -> float:
    """max |lambda_i(M)| over the eigenvalues of a square matrix M."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    return float(np.abs(np.linalg.eigvals(M)).max())


def _row_norms(V):
    """Euclidean norms along the last axis, bit-equal to np.linalg.norm of
    each row: both take one BLAS dot product per row."""
    return np.sqrt((V[..., None, :] @ V[..., :, None])[..., 0, 0])


def solve_lyapunov_stein(F: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Solve P = C + F^T P F for symmetric C with rho(F) < 1.

    Fixed-point iteration with squaring (P accumulates sum F^{T k} C F^k
    while F is repeatedly squared), quadratically convergent.  It stops
    once a step moves P by at most 1e-12 relative to 1 + ||P||_F, or after
    200 steps.  The stationary state covariance X = F X F^T + W is the
    transposed variant: pass F.T.

    C may carry leading axes, a stack of right-hand sides sharing one F:
    F is then squared once per step for the whole stack, each member
    stops on its own test and leaves the stack, and every result is bit
    for bit that of solving its member alone.
    """
    C = np.asarray(C, dtype=float)
    n = C.shape[-1]
    P = _sym(C).reshape(-1, n, n)
    out = np.empty_like(P)
    act = np.arange(len(P))
    Fk = np.array(F, dtype=float)
    for _ in range(_LYAP_MAX_ITER):
        Pn = _sym(P + Fk.T @ P @ Fk)
        Fk = Fk @ Fk
        S = len(P)
        # ||Pn - P||_F and ||Pn||_F of every member, as floats
        norms = _row_norms(np.concatenate((Pn - P, Pn)).reshape(
            2 * S, n * n)).tolist()
        stop = [step <= _LYAP_TOL * (1.0 + size)
                for step, size in zip(norms[:S], norms[S:])]
        if True in stop:
            if False not in stop:
                out[act] = Pn
                break
            keep = np.logical_not(stop)
            out[act[~keep]] = Pn[~keep]
            Pn, act = Pn[keep], act[keep]
        P = Pn
    else:
        out[act] = P
    return out.reshape(C.shape)


def stationary_covariance(dyn: LinearDynamics, K: np.ndarray,
                          input_noise_cov: np.ndarray | None = None) -> np.ndarray:
    """Stationary state covariance X = F X F^T + W_eff of the closed loop.

    With input noise z ~ N(0, Sigma) on top of u = K x, the effective
    disturbance covariance is W + B Sigma B^T.  Raises ValueError unless
    Sigma is m x m symmetric PSD (:func:`_noise_cov`).
    """
    F = dyn.closed_loop(K)
    if spectral_radius(F) >= STABILITY_MARGIN:
        raise ValueError("closed loop is not stable: no stationary distribution")
    Weff = dyn.W
    if input_noise_cov is not None:
        Weff = Weff + dyn.B @ _noise_cov(dyn, input_noise_cov) @ dyn.B.T
    return solve_lyapunov_stein(F.T, Weff)


def closed_loop_cost(dyn: LinearDynamics, cost, K: np.ndarray) -> float:
    """Infinite-horizon average cost of the gain K, or inf if unstable.

    Computed as trace(W P_cl) where P_cl solves the discrete Lyapunov
    equation P_cl = Q + K^T R K + F^T P_cl F with F = A + B K.  Raises
    ValueError when Q or R does not match the system's size.
    """
    Q, R = cost_pair(dyn, cost)
    F = dyn.closed_loop(K)
    if spectral_radius(F) >= STABILITY_MARGIN:
        return math.inf
    K = np.asarray(K, dtype=float)
    Pcl = solve_lyapunov_stein(F, Q + K.T @ R @ K)
    return float(np.sum(dyn.W * Pcl))


def _simulate_closed_loop(F: np.ndarray, X: np.ndarray) -> np.ndarray:
    """States x_0..x_{T-1} under x_{t+1} = F x_t + d_t, computed in place.

    ``X`` is an (n, T) array holding [x_0, d_0, ..., d_{T-2}] on entry and
    the states on return (it is also returned).  A log-depth prefix scan
    (Hillis and Steele, 1986): after the step with shift s, column t holds
    sum_{j < 2s} F^j times column t - j of the input, so once the shift
    reaches T every column is the state.  Each step adds F^s times the
    columns s to the left in blocks of _SCAN_BLOCK columns, from right to
    left, so that every read sees the column from before the step and the
    only scratch space is one block.  F need not be diagonalizable.
    """
    T = X.shape[1]
    Fk = F
    shift = 1
    while shift < T:
        for hi in range(T, shift, -_SCAN_BLOCK):
            lo = max(hi - _SCAN_BLOCK, shift)
            X[:, lo:hi] += Fk @ X[:, lo - shift:hi - shift]
        Fk = Fk @ Fk
        shift *= 2
    return X


def rollout_cost_estimate(dyn: LinearDynamics, cost, K: np.ndarray,
                          horizon: int, rng_seed,
                          input_noise_cov: np.ndarray | None = None) -> float:
    """Monte-Carlo estimate of the average cost from one simulated trajectory.

    Simulates ``horizon`` steps with Gaussian disturbances of covariance W,
    starting from a draw of the stationary closed-loop distribution, and
    returns (1/T) sum_t (x_t^T Q x_t + u_t^T R u_t).  With
    ``input_noise_cov`` set, the applied input is u_t = K x_t + z_t with
    z_t ~ N(0, Sigma); this is the noisy-expert policy used in the
    experiments.  Intended as an independent cross-check of
    :func:`closed_loop_cost`.  The trajectory lives in one (n, T) array:
    x_0 and the disturbances are written into it, the input noise's share
    B z_t is added block by block, and the prefix scan of
    :func:`_simulate_closed_loop` turns it into the states in place.
    Raises ValueError when Q or R does not match the system's size, unless
    ``horizon`` is an integer (not a bool) of at least 1, or unless Sigma
    is m x m symmetric PSD (checked by :func:`stationary_covariance`).
    """
    Q, R = cost_pair(dyn, cost)
    K = np.asarray(K, dtype=float)
    F = dyn.closed_loop(K)
    if spectral_radius(F) >= STABILITY_MARGIN:
        raise ValueError("closed loop is not stable: rollout cost diverges")
    horizon = _check_count(horizon, "horizon", 1)
    rng = np.random.default_rng(rng_seed)
    Xstat = stationary_covariance(dyn, K, input_noise_cov)
    X = np.empty((dyn.n, horizon))
    X[:, 0] = _psd_factor(Xstat) @ rng.standard_normal(dyn.n)
    Lw = _psd_factor(dyn.W)
    if horizon > 1:
        np.matmul(Lw, rng.standard_normal((dyn.n, horizon - 1)),
                  out=X[:, 1:])
    Z = None
    if input_noise_cov is not None:
        Lz = _psd_factor(np.asarray(input_noise_cov, dtype=float))
        Z = Lz @ rng.standard_normal((dyn.m, horizon))
        for lo in range(0, horizon - 1, _SCAN_BLOCK):
            hi = min(lo + _SCAN_BLOCK, horizon - 1)
            X[:, 1 + lo:1 + hi] += dyn.B @ Z[:, lo:hi]
    _simulate_closed_loop(F, X)
    state_cost = np.einsum("it,ij,jt->", X, Q, X)
    U = K @ X
    del X
    if Z is not None:
        U += Z
    input_cost = np.einsum("it,ij,jt->", U, R, U)
    return float((state_cost + input_cost) / horizon)


def generate_demos(dyn: LinearDynamics, expert: np.ndarray,
                   input_noise_cov: np.ndarray, n_demos: int,
                   outlier_prob: float, rng_seed) -> DemoSet:
    """Draw N demonstration pairs from a noisy expert.

    States are drawn i.i.d. from the expert's stationary closed-loop
    distribution, inputs are u_i = K_expert x_i + z_i with z_i ~ N(0, Sigma),
    and then every scalar input entry is independently sign-flipped with
    probability ``outlier_prob`` (a real in [0, 1]).  ``n_demos`` must be
    an integer (not a bool) >= 1, and Sigma m x m symmetric PSD.

    Draw order (fixed for reproducibility): state normals (n, N), input
    normals (m, N), then flip uniforms (N, m); the flip uniforms are drawn
    even when ``outlier_prob`` is zero.
    """
    expert = np.asarray(expert, dtype=float)
    Sigma = _noise_cov(dyn, input_noise_cov)
    outlier_prob = _check_real(outlier_prob, "outlier_prob", 0.0, most=1.0)
    n_demos = _check_count(n_demos, "n_demos", 1)
    rng = np.random.default_rng(rng_seed)
    Lx = _psd_factor(stationary_covariance(dyn, expert))
    states = (Lx @ rng.standard_normal((dyn.n, n_demos))).T
    noise = (_psd_factor(Sigma) @ rng.standard_normal((dyn.m, n_demos))).T
    inputs = states @ expert.T + noise
    flips = rng.random((n_demos, dyn.m)) < outlier_prob
    inputs = np.where(flips, -inputs, inputs)
    return DemoSet(states=states, inputs=inputs)
