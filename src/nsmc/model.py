"""Sequential probabilistic models and their simulators.

Two concrete model families are provided:

* a spatio-temporal linear-Gaussian state-space model whose process noise
  is a chain-structured Gaussian Markov random field (``StssmSpec``), and
* a product model made of independent identical scalar state-space models
  with a shared (replicated) observation (``IndependentSsmSpec``).

Both are linear-Gaussian, so exact inference is available downstream for
validation.  All densities are handled in the log domain throughout the
package: with state dimensions up to a hundred, raw density products
underflow.

``make_model`` turns a spec into a sampler/evaluator bundle.  Both
bundles answer one protocol, indexed by the 1-based time ``t``:
``sample_transition``, ``log_transition`` and ``log_gamma_ratio`` draw
from or evaluate the law of ``x_t`` given ``x_{t-1}``, which at ``t = 1``
is the initial law (``x_prev`` is then ignored), and ``inner_target``
builds the stage decomposition the nested filter runs on.  The filters
therefore never branch on the model type.  Specs serialise through
``to_dict``/``from_dict``, keyed like the model block of an experiment
config, and ``SPEC_KINDS`` maps the ``kind`` key back to the class.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

_LOG_2PI = np.log(2.0 * np.pi)


# ---------------------------------------------------------------------------
# Chain-structured Gaussian Markov random fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TridiagPrecision:
    """Symmetric tridiagonal precision matrix of a chain GMRF.

    Parameters
    ----------
    diag : np.ndarray
        Main diagonal, length ``n`` (all positive).
    offdiag : np.ndarray
        Sub/super diagonal, length ``n - 1``.

    ``fact`` is its :func:`chain_factorization`, computed once at
    construction with read-only arrays.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    fact: ChainFactorization = field(init=False, repr=False, compare=False)
    _cov: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=float)
        offdiag = np.asarray(self.offdiag, dtype=float)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", offdiag)
        if diag.ndim != 1 or diag.size < 1:
            raise ValueError("diag must be a non-empty 1-d array")
        if offdiag.shape != (diag.size - 1,):
            raise ValueError("offdiag must have length len(diag) - 1")
        if np.any(diag <= 0.0):
            raise ValueError("diagonal entries must be positive")
        # SPD check doubles as the factorization used everywhere else.
        fact = chain_factorization(self)
        fact.c.setflags(write=False)
        fact.phi.setflags(write=False)
        object.__setattr__(self, "fact", fact)

    @property
    def n(self) -> int:
        return self.diag.size

    def dense(self) -> np.ndarray:
        """Return the full ``n x n`` matrix."""
        q = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        q[idx, idx + 1] = self.offdiag
        q[idx + 1, idx] = self.offdiag
        return q

    def covariance(self) -> np.ndarray:
        """Dense inverse, computed by banded solves against unit vectors.

        Computed on the first call and cached; the returned array is
        read-only because every later call returns the same one.
        """
        if self._cov is None:
            from scipy.linalg import solveh_banded

            if self.n == 1:
                cov = np.array([[1.0 / self.diag[0]]])
            else:
                ab = np.zeros((2, self.n))
                ab[0, 1:] = self.offdiag
                ab[1] = self.diag
                cov = solveh_banded(ab, np.eye(self.n))
                cov = 0.5 * (cov + cov.T)
            cov.setflags(write=False)
            object.__setattr__(self, "_cov", cov)
        return self._cov


def chain_precision(tau: float, lam: float, n: int) -> TridiagPrecision:
    """Precision of the chain GMRF with node weight ``tau`` and coupling ``lam``.

    The underlying quadratic form is
    ``tau/2 * sum_d v_d^2 + lam/2 * sum_{d>=2} (v_d - v_{d-1})^2``,
    which gives diagonal entries ``tau + lam`` at the two chain ends,
    ``tau + 2*lam`` in the interior, and off-diagonal entries ``-lam``.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if lam < 0.0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    diag = np.full(n, tau + 2.0 * lam)
    if n >= 1:
        diag[0] = tau + lam
        diag[-1] = tau + lam
    if n == 1:
        diag[0] = tau
    return TridiagPrecision(diag=diag, offdiag=np.full(n - 1, -lam))


@dataclass(frozen=True)
class ChainFactorization:
    """Markov factorization of a zero-mean chain GMRF.

    A tridiagonal precision admits the exact sequential factorization
    ``p(v) = prod_d Normal(v_d; phi_d * v_{d-1}, 1 / c_d)`` where the
    ``c_d`` come from a backward elimination sweep and ``phi_1 = 0``.
    This is the shared machinery behind prior sampling, forward filtering
    and backward sampling over components.
    """

    c: np.ndarray  # conditional precisions, length n
    phi: np.ndarray  # autoregressive coefficients, length n (phi[0] == 0)

    @property
    def n(self) -> int:
        return self.c.size

    @property
    def cond_var(self) -> np.ndarray:
        return 1.0 / self.c

    def log_density(self, v: np.ndarray) -> np.ndarray:
        """Log-density of the zero-mean chain GMRF, batched over leading dims."""
        v = np.asarray(v, dtype=float)
        prev = np.concatenate(
            [np.zeros(v.shape[:-1] + (1,)), v[..., :-1]], axis=-1
        )
        resid = v - self.phi * prev
        return -0.5 * np.sum(
            resid * resid * self.c + np.log(2.0 * np.pi / self.c), axis=-1
        )


def chain_factorization(prec: TridiagPrecision) -> ChainFactorization:
    """Backward-sweep factorization of a tridiagonal precision.

    Raises
    ------
    np.linalg.LinAlgError
        If the matrix is not positive definite (a pivot becomes
        non-positive during elimination).
    """
    diag = prec.diag
    off = prec.offdiag
    n = diag.size
    c = np.empty(n)
    c[-1] = diag[-1]
    for d in range(n - 2, -1, -1):
        if c[d + 1] <= 0.0:
            raise np.linalg.LinAlgError(
                f"tridiagonal precision is not positive definite (pivot {d + 2})"
            )
        c[d] = diag[d] - off[d] ** 2 / c[d + 1]
    if np.any(c <= 0.0):
        raise np.linalg.LinAlgError(
            "tridiagonal precision is not positive definite"
        )
    phi = np.zeros(n)
    if n > 1:
        phi[1:] = -off / c[1:]
    return ChainFactorization(c=c, phi=phi)


def sample_gmrf_chain(
    prec: TridiagPrecision,
    rng: np.random.Generator,
    size: tuple[int, ...] = (),
) -> np.ndarray:
    """Exact draw from the zero-mean Gaussian with tridiagonal precision.

    Runs the sequential chain factorization forward over components.
    ``size`` prepends batch dimensions; the returned array has shape
    ``size + (n,)``.
    """
    fact = prec.fact
    n = fact.n
    z = rng.standard_normal(size + (n,))
    sd = np.sqrt(fact.cond_var)
    v = np.empty_like(z)
    v[..., 0] = sd[0] * z[..., 0]
    for d in range(1, n):
        v[..., d] = fact.phi[d] * v[..., d - 1] + sd[d] * z[..., d]
    return v


# ---------------------------------------------------------------------------
# Model specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StssmSpec:
    """Linear-Gaussian spatio-temporal state-space model.

    ``x_t = a_coef * x_{t-1} + v_t`` with ``v_t`` a chain GMRF draw, and
    ``y_t = x_t + e_t`` with isotropic observation noise.  The initial
    state is a pure noise draw, ``x_1 ~ N(0, Q^{-1})``.
    """

    n_x: int
    a_coef: float
    noise_precision: TridiagPrecision
    obs_var: float

    def __post_init__(self):
        if self.n_x < 1:
            raise ValueError(f"n_x must be >= 1, got {self.n_x}")
        if self.obs_var <= 0.0:
            raise ValueError(f"obs_var must be positive, got {self.obs_var}")
        if self.noise_precision.n != self.n_x:
            raise ValueError("noise_precision size must match n_x")

    @classmethod
    def chain(
        cls, n_x: int, tau: float, lam: float, obs_var: float, a_coef: float = 0.5
    ) -> "StssmSpec":
        """Convenience constructor from the chain GMRF parameters."""
        return cls(
            n_x=n_x,
            a_coef=a_coef,
            noise_precision=chain_precision(tau, lam, n_x),
            obs_var=obs_var,
        )

    def to_dict(self) -> dict:
        """Parameters keyed like the ``stssm`` model block of a config.

        ``tau`` and ``lambda`` are read back from the first row of the
        precision, so a precision that :func:`chain_precision` did not
        build (up to round-off) raises ``ValueError`` instead of being
        written as a different model.
        """
        prec = self.noise_precision
        lam = float(-prec.offdiag[0]) if prec.offdiag.size else 0.0
        tau = float(prec.diag[0]) - lam
        chain = chain_precision(tau, lam, self.n_x)
        if not np.allclose(prec.dense(), chain.dense(), rtol=1e-12, atol=0.0):
            raise ValueError(
                "noise_precision is not a chain precision; tau and lambda "
                "cannot describe it"
            )
        return {
            "kind": "stssm",
            "n_x": self.n_x,
            "tau": tau,
            "lambda": lam,
            "obs_var": self.obs_var,
            "a_coef": self.a_coef,
        }

    @classmethod
    def from_dict(cls, block: dict) -> "StssmSpec":
        """Inverse of :meth:`to_dict`; ``a_coef`` defaults to 0.5, other
        keys are ignored and a missing field raises ``KeyError``."""
        return cls.chain(
            n_x=int(block["n_x"]),
            tau=float(block["tau"]),
            lam=float(block["lambda"]),
            obs_var=float(block["obs_var"]),
            a_coef=float(block.get("a_coef", 0.5)),
        )


@dataclass(frozen=True)
class IndependentSsmSpec:
    """``n_x`` independent copies of a scalar linear-Gaussian SSM.

    Every coordinate shares the same scalar dynamics
    ``x_1 ~ N(init_mean, init_var)``, ``x_t ~ N(a_coef * x_{t-1}, trans_var)``
    and ``y ~ N(x, obs_var)``.  By convention the observation is replicated
    across coordinates: ``y_{t,d}`` is identical for every ``d``.
    """

    n_x: int
    a_coef: float
    init_mean: float = 0.0
    init_var: float = 1.0
    trans_var: float = 1.0
    obs_var: float = 1.0

    def __post_init__(self):
        for name in ("init_var", "trans_var", "obs_var"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.n_x < 1:
            raise ValueError(f"n_x must be >= 1, got {self.n_x}")

    def to_stssm(self) -> StssmSpec:
        """Map to an equivalent ``StssmSpec`` (diagonal noise, lambda = 0).

        Only possible when the initial law coincides with the transition
        noise law, which is how ``StssmSpec`` initializes.
        """
        if self.init_mean != 0.0 or self.init_var != self.trans_var:
            raise ValueError(
                "only zero-mean models with init_var == trans_var map to an "
                "equivalent chain model"
            )
        return StssmSpec.chain(
            n_x=self.n_x,
            tau=1.0 / self.trans_var,
            lam=0.0,
            obs_var=self.obs_var,
            a_coef=self.a_coef,
        )

    def to_dict(self) -> dict:
        """Parameters keyed like the ``independent`` model block of a config."""
        return {"kind": "independent", **asdict(self)}

    @classmethod
    def from_dict(cls, block: dict) -> "IndependentSsmSpec":
        """Inverse of :meth:`to_dict`; optional fields take the config
        defaults, other keys are ignored and a missing field raises
        ``KeyError``."""
        return cls(
            n_x=int(block["n_x"]),
            a_coef=float(block.get("a_coef", 0.5)),
            init_mean=float(block.get("init_mean", 0.0)),
            init_var=float(block.get("init_var", 1.0)),
            trans_var=float(block.get("trans_var", 1.0)),
            obs_var=float(block["obs_var"]),
        )


ModelSpec = StssmSpec | IndependentSsmSpec

#: The ``kind`` key of a serialised spec mapped to its class.
SPEC_KINDS = {"stssm": StssmSpec, "independent": IndependentSsmSpec}


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Observed (and optionally latent) trajectories of one simulation."""

    T: int
    observations: np.ndarray  # (T, n_x)
    latent_truth: np.ndarray | None = None  # (T, n_x)
    seed: int = 0

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=float)
        object.__setattr__(self, "observations", obs)
        if obs.ndim != 2 or obs.shape[0] != self.T:
            raise ValueError("observations must be a (T, n_x) matrix")
        if self.latent_truth is not None:
            lat = np.asarray(self.latent_truth, dtype=float)
            object.__setattr__(self, "latent_truth", lat)
            if lat.shape != obs.shape:
                raise ValueError("latent_truth must match observations shape")

    @property
    def n_x(self) -> int:
        return self.observations.shape[1]


def simulate(model: ModelSpec, T: int, seed: int) -> Dataset:
    """Draw latent and observed trajectories from the generative model.

    A pure function of ``(model, T, seed)``: identical inputs give
    bit-identical output.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    rng = np.random.default_rng(seed)
    if isinstance(model, StssmSpec):
        x = np.empty((T, model.n_x))
        v = sample_gmrf_chain(model.noise_precision, rng, size=(T,))
        x[0] = v[0]
        for t in range(1, T):
            x[t] = model.a_coef * x[t - 1] + v[t]
        y = x + np.sqrt(model.obs_var) * rng.standard_normal((T, model.n_x))
        return Dataset(T=T, observations=y, latent_truth=x, seed=seed)
    if isinstance(model, IndependentSsmSpec):
        # Independent scalar chains per coordinate; the observation is
        # generated from coordinate 1 and replicated across coordinates.
        x = np.empty((T, model.n_x))
        x[0] = model.init_mean + np.sqrt(model.init_var) * rng.standard_normal(
            model.n_x
        )
        for t in range(1, T):
            x[t] = model.a_coef * x[t - 1] + np.sqrt(
                model.trans_var
            ) * rng.standard_normal(model.n_x)
        y_scalar = x[:, 0] + np.sqrt(model.obs_var) * rng.standard_normal(T)
        y = np.repeat(y_scalar[:, None], model.n_x, axis=1)
        return Dataset(T=T, observations=y, latent_truth=x, seed=seed)
    raise TypeError(f"unsupported model spec: {type(model).__name__}")


def save_dataset(data: Dataset, model: ModelSpec, path: str | Path) -> None:
    """Write a dataset as CSV with a JSON sidecar of model parameters.

    The CSV has header ``t,d,y[,x]`` with one row per (time, component),
    1-based indices.  The sidecar lands next to it as
    ``<name>.meta.json``.
    """
    path = Path(path)
    with_latent = data.latent_truth is not None
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "d", "y", "x"] if with_latent else ["t", "d", "y"])
        for t in range(data.T):
            for d in range(data.n_x):
                row = [t + 1, d + 1, repr(float(data.observations[t, d]))]
                if with_latent:
                    row.append(repr(float(data.latent_truth[t, d])))
                writer.writerow(row)
    meta = {**model.to_dict(), "T": data.T, "seed": data.seed}
    sidecar = path.with_suffix(".meta.json")
    with open(sidecar, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(path: str | Path) -> tuple[Dataset, ModelSpec]:
    """Read back a dataset written by :func:`save_dataset`."""
    path = Path(path)
    with open(path.with_suffix(".meta.json")) as fh:
        meta = json.load(fh)
    T, n_x = meta["T"], meta["n_x"]
    y = np.full((T, n_x), np.nan)
    x = np.full((T, n_x), np.nan)
    with_latent = False
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        with_latent = "x" in header
        for row in reader:
            t, d = int(row[0]) - 1, int(row[1]) - 1
            y[t, d] = float(row[2])
            if with_latent:
                x[t, d] = float(row[3])
    data = Dataset(
        T=T,
        observations=y,
        latent_truth=x if with_latent else None,
        seed=meta["seed"],
    )
    return data, SPEC_KINDS[meta["kind"]].from_dict(meta)


# ---------------------------------------------------------------------------
# Target-sequence adapters used by the particle filters
# ---------------------------------------------------------------------------


def _gauss_logpdf(x, mean, var):
    x = np.asarray(x, dtype=float)
    # A residual too large to square gives a density of exactly zero.
    with np.errstate(over="ignore"):
        return -0.5 * ((x - mean) ** 2 / var + np.log(2.0 * np.pi * var))


@dataclass(frozen=True)
class StssmModel:
    """Sampler/evaluator bundle for :class:`StssmSpec`.

    Exposes the generic target-sequence surface consumed by the particle
    filters: a transition sampler, the observation log-density, the
    incremental unnormalized target ratio (transition times likelihood)
    in the log domain, and the inner target of one time step.  The
    initial law (``t = 1``) is the noise law, i.e. the transition from
    ``x_prev = 0``.
    """

    spec: StssmSpec

    @property
    def n_x(self) -> int:
        return self.spec.n_x

    def sample_transition(
        self, x_prev: np.ndarray, rng: np.random.Generator, t: int = 2
    ) -> np.ndarray:
        """One draw of ``x_t`` per row of ``x_prev``."""
        v = sample_gmrf_chain(
            self.spec.noise_precision, rng, size=x_prev.shape[:-1]
        )
        return v if t == 1 else self.spec.a_coef * x_prev + v

    def log_transition(
        self, x_prev: np.ndarray, x: np.ndarray, t: int = 2
    ) -> np.ndarray:
        """Batched ``log f(x | x_prev)``."""
        fact = self.spec.noise_precision.fact
        return fact.log_density(x if t == 1 else x - self.spec.a_coef * x_prev)

    def log_obs(self, y: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Batched ``log g(y | x)``, summed over components."""
        return np.sum(_gauss_logpdf(x, y, self.spec.obs_var), axis=-1)

    def log_gamma_ratio(
        self, x_prev: np.ndarray, x: np.ndarray, y: np.ndarray, t: int = 2
    ) -> np.ndarray:
        """Incremental unnormalized target: ``log f + log g``."""
        return self.log_transition(x_prev, x, t) + self.log_obs(y, x)

    def inner_target(self, t: int, x_prev, y_t, proposal: str = "prior"):
        """Chain stage decomposition of ``gamma_t / gamma_{t-1}``."""
        from .nested import ChainInnerTarget

        return ChainInnerTarget(self.spec, x_prev, y_t, proposal=proposal, t=t)


@dataclass(frozen=True)
class IndependentModel:
    """Sampler/evaluator bundle for :class:`IndependentSsmSpec`."""

    spec: IndependentSsmSpec

    @property
    def n_x(self) -> int:
        return self.spec.n_x

    def _law(self, x_prev: np.ndarray, t: int):
        """Mean and variance of every component of ``x_t``."""
        s = self.spec
        if t == 1:
            return s.init_mean, s.init_var
        return s.a_coef * x_prev, s.trans_var

    def sample_transition(
        self, x_prev: np.ndarray, rng: np.random.Generator, t: int = 2
    ) -> np.ndarray:
        mean, var = self._law(x_prev, t)
        return mean + np.sqrt(var) * rng.standard_normal(x_prev.shape)

    def log_transition(
        self, x_prev: np.ndarray, x: np.ndarray, t: int = 2
    ) -> np.ndarray:
        mean, var = self._law(x_prev, t)
        return np.sum(_gauss_logpdf(x, mean, var), axis=-1)

    def log_obs(self, y: np.ndarray, x: np.ndarray) -> np.ndarray:
        return np.sum(_gauss_logpdf(x, y, self.spec.obs_var), axis=-1)

    def log_gamma_ratio(
        self, x_prev: np.ndarray, x: np.ndarray, y: np.ndarray, t: int = 2
    ) -> np.ndarray:
        return self.log_transition(x_prev, x, t) + self.log_obs(y, x)

    def inner_target(self, t: int, x_prev, y_t, proposal: str = "prior"):
        """Per-coordinate stage decomposition; ``proposal`` is unused
        because every stage proposes from its own transition."""
        from .nested import IndependentInnerTarget

        return IndependentInnerTarget(self.spec, x_prev, y_t, t=t)


def make_model(spec) -> StssmModel | IndependentModel:
    """Build the sampler/evaluator bundle for a model specification; a
    bundle passes through unchanged."""
    if isinstance(spec, (StssmModel, IndependentModel)):
        return spec
    if isinstance(spec, StssmSpec):
        return StssmModel(spec)
    if isinstance(spec, IndependentSsmSpec):
        return IndependentModel(spec)
    raise TypeError(f"unsupported model spec: {type(spec).__name__}")
