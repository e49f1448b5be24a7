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

Each spec is its own sampler/evaluator.  Both answer one protocol,
indexed by the 1-based time ``t``: ``sample_transition`` draws from the
law of ``x_t`` given ``x_{t-1}``, which at ``t = 1`` is the initial law
(``x_prev`` is then ignored), ``sample_obs`` and ``log_obs`` draw and
evaluate ``y_t`` given ``x_t``, and ``inner_target`` builds the stage
decomposition the nested filter runs on.  No filter evaluates the
transition density: every weight reduces to a closed form.  The shared
part (``sample_obs``, ``log_obs``) lives in their base class
:class:`ModelBundle`, so the filters and :func:`simulate` never branch
on the model type;
``make_model`` checks that its argument is one and returns it.  Every
spec serialises through the one ``ModelBundle.to_dict``/``from_dict``
pair, keyed like the model block of an experiment config: its init
fields under their config keys, plus its ``kind``.  A spec keeps exactly
the numbers a config gives, so ``from_dict(to_dict(s)) == s`` holds bit
for bit.  ``SPEC_KINDS`` maps the ``kind`` key back to the class.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .exceptions import InvalidInputError, NotPositiveDefiniteError

_LOG_2PI = np.log(2.0 * np.pi)
_NOT_PD = "tridiagonal precision is not positive definite"


# ---------------------------------------------------------------------------
# Chain-structured Gaussian Markov random fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TridiagPrecision:
    """Symmetric tridiagonal precision matrix of a chain GMRF, with its
    Markov factorization.

    Parameters
    ----------
    diag : np.ndarray
        Main diagonal, length ``n`` (all positive).
    offdiag : np.ndarray
        Sub/super diagonal, length ``n - 1``.

    A tridiagonal precision admits the exact sequential factorization
    ``p(v) = prod_d Normal(v_d; phi_d * v_{d-1}, 1 / c_d)``, with
    ``phi_1 = 0``.  Construction computes the conditional precisions
    ``c`` and autoregressive coefficients ``phi`` once, by a backward
    elimination sweep, as read-only arrays of length ``n``; they serve
    prior sampling and the nested filter's inner stage law.  A bad shape
    or diagonal raises :class:`InvalidInputError`.  The sweep doubles as
    the positive-definiteness check: a non-positive pivot raises
    :class:`NotPositiveDefiniteError`, naming its 1-based index.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    c: np.ndarray = field(init=False, repr=False, compare=False)
    phi: np.ndarray = field(init=False, repr=False, compare=False)
    _spectrum: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=float)
        offdiag = np.asarray(self.offdiag, dtype=float)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", offdiag)
        if diag.ndim != 1 or diag.size < 1:
            raise InvalidInputError("diag must be a non-empty 1-d array")
        if offdiag.shape != (diag.size - 1,):
            raise InvalidInputError("offdiag must have length len(diag) - 1")
        if np.any(diag <= 0.0):
            raise InvalidInputError("diagonal entries must be positive")
        n = diag.size
        c = np.empty(n)
        c[-1] = diag[-1]
        for d in range(n - 2, -1, -1):
            c[d] = diag[d] - offdiag[d] ** 2 / c[d + 1]
            if c[d] <= 0.0:
                raise NotPositiveDefiniteError(f"{_NOT_PD} (pivot {d + 1})")
        phi = np.zeros(n)
        if n > 1:
            phi[1:] = -offdiag / c[1:]
        c.setflags(write=False)
        phi.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "phi", phi)

    def __setstate__(self, state):
        """Unpickle with ``c``, ``phi`` and the cached spectrum read-only
        again: pickle does not keep numpy's writeable flag."""
        self.__dict__.update(state)
        for arr in (self.c, self.phi, *(self._spectrum or ())):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.diag.size

    @property
    def cond_var(self) -> np.ndarray:
        """Conditional variances ``1 / c`` of the Markov factorization."""
        return 1.0 / self.c

    def dense(self) -> np.ndarray:
        """Return the full ``n x n`` matrix."""
        q = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        q[idx, idx + 1] = self.offdiag
        q[idx + 1, idx] = self.offdiag
        return q

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and orthonormal eigenvectors (columns)
        of the dense matrix, from ``np.linalg.eigh``.

        Computed on the first call and cached; both arrays are read-only
        because every later call returns the same ones.  Raises
        :class:`NotPositiveDefiniteError` if an eigenvalue is not positive.
        """
        if self._spectrum is None:
            eigvals, basis = np.linalg.eigh(self.dense())
            if not np.all(eigvals > 0.0):
                raise NotPositiveDefiniteError(_NOT_PD)
            eigvals.setflags(write=False)
            basis.setflags(write=False)
            object.__setattr__(self, "_spectrum", (eigvals, basis))
        return self._spectrum


def _check_reals(positive=(), **fields) -> None:
    """Raise :class:`InvalidInputError` naming the first field that is not
    finite, or not positive if ``positive`` names it."""
    for name, value in fields.items():
        if not np.isfinite(value):
            raise InvalidInputError(f"{name} must be finite, got {value}")
        if name in positive and not value > 0.0:
            raise InvalidInputError(f"{name} must be positive, got {value}")


def _check_count(value, name: str) -> int:
    """``value`` as an ``int``; anything but a Python or NumPy integer >= 1,
    a bool included, raises :class:`InvalidInputError` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise InvalidInputError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def chain_precision(tau: float, lam: float, n: int) -> TridiagPrecision:
    """Precision of the chain GMRF with node weight ``tau`` and coupling ``lam``.

    The underlying quadratic form is
    ``tau/2 * sum_d v_d^2 + lam/2 * sum_{d>=2} (v_d - v_{d-1})^2``,
    which gives diagonal entries ``tau + lam`` at the two chain ends,
    ``tau + 2*lam`` in the interior, and off-diagonal entries ``-lam``.
    A bad argument raises :class:`InvalidInputError` naming it.
    """
    _check_reals(("tau",), tau=tau, **{"lambda": lam})
    if lam < 0.0:
        raise InvalidInputError(f"lambda must be nonnegative, got {lam}")
    n = _check_count(n, "n")
    diag = np.full(n, tau + 2.0 * lam)
    diag[0] = tau + lam
    diag[-1] = tau + lam
    if n == 1:
        diag[0] = tau
    return TridiagPrecision(diag=diag, offdiag=np.full(n - 1, -lam))


def sample_gmrf_chain(
    prec: TridiagPrecision,
    rng: np.random.Generator,
    size: tuple[int, ...] = (),
) -> np.ndarray:
    """Exact draw from the zero-mean Gaussian with tridiagonal precision.

    Runs the precision's Markov factorization forward over components,
    ``v_d = phi_d * v_{d-1} + sqrt(1 / c_d) * z_d``: one in-place pass
    scales every normal, then each component adds its carried term.
    ``size`` prepends batch dimensions; the returned array has shape
    ``size + (n,)``.
    """
    phi = prec.phi
    v = rng.standard_normal(size + (prec.n,))
    v *= np.sqrt(prec.cond_var)
    for d in range(1, prec.n):
        v[..., d] += phi[d] * v[..., d - 1]
    return v


# ---------------------------------------------------------------------------
# Model specifications
# ---------------------------------------------------------------------------


def _gauss_logpdf(x, mean, var):
    x = np.asarray(x, dtype=float)
    # A residual too large to square gives a density of exactly zero.
    with np.errstate(over="ignore"):
        return -0.5 * ((x - mean) ** 2 / var + np.log(2.0 * np.pi * var))


def _real(block: dict, key: str, default=None) -> float:
    """A real field of a ``from_dict`` block (``default`` when given and
    absent); a boolean or a string raises ``TypeError`` naming ``key``."""
    value = block[key] if default is None else block.get(key, default)
    if isinstance(value, (bool, str)):
        raise TypeError(f"{key}: expected a number, got {value!r}")
    return float(value)


#: Spec field name -> its config key, where the two differ.
_CONFIG_KEYS = {"lam": "lambda"}


class ModelBundle:
    """Base class of the model specs: the sampler/evaluator protocol and
    the one serialisation.

    Holds the parts both model families share: the observation sampler
    and log-density, and ``to_dict``/``from_dict``.  Subclasses are
    frozen dataclasses that supply ``kind``, ``DEFAULTS``, ``n_x``,
    ``obs_var``, ``sample_transition``, ``inner_target`` and
    ``to_stssm``, an equivalent chain model or ``ValueError``.
    """

    #: The ``kind`` key of the model block.
    kind = ""
    #: Config defaults of the init fields a model block may omit, by field
    #: name.  They may differ from the constructor's defaults.
    DEFAULTS: dict = {}

    def sample_obs(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One observation per row of ``x``: ``x`` plus isotropic noise."""
        return x + np.sqrt(self.obs_var) * rng.standard_normal(x.shape)

    def log_obs(self, y: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Batched ``log g(y | x)``, summed over components."""
        return np.sum(_gauss_logpdf(x, y, self.obs_var), axis=-1)

    def to_dict(self) -> dict:
        """``kind`` and the init fields, keyed like the model block of a
        config."""
        return {"kind": self.kind} | {
            _CONFIG_KEYS.get(f.name, f.name): getattr(self, f.name)
            for f in fields(self) if f.init
        }

    @classmethod
    def from_dict(cls, block: dict) -> "ModelBundle":
        """Inverse of :meth:`to_dict`.  A field absent from ``block`` takes
        its ``DEFAULTS`` entry or raises ``KeyError``; other keys are
        ignored.  An integral float ``n_x`` becomes an ``int``."""
        n_x = block["n_x"]
        kwargs = {"n_x": int(n_x) if isinstance(n_x, float) and n_x.is_integer() else n_x}
        for f in fields(cls):
            if f.init and f.name != "n_x":
                key = _CONFIG_KEYS.get(f.name, f.name)
                kwargs[f.name] = _real(block, key, cls.DEFAULTS.get(f.name))
        return cls(**kwargs)


@dataclass(frozen=True)
class StssmSpec(ModelBundle):
    """Linear-Gaussian spatio-temporal state-space model.

    ``x_t = a_coef * x_{t-1} + v_t`` with ``v_t`` a draw of the chain GMRF
    with node weight ``tau`` and coupling ``lam``, and ``y_t = x_t + e_t``
    with isotropic observation noise.  The initial state is a pure noise
    draw, ``x_1 ~ N(0, Q^{-1})``: the initial law (``t = 1``) is the
    transition from ``x_prev = 0``.  ``noise_precision`` is ``Q``, built
    once by :func:`chain_precision`; the spec keeps ``tau`` and ``lam``
    themselves, so it serialises to the numbers it was built from.
    ``_riccati`` is the memo of the Kalman filter's data-free covariance
    recursion (:func:`nsmc.exact._riccati`): a read-only tuple, empty
    until a Kalman or fully adapted run fills it, replaced whole as it
    grows, and left out of comparisons, of ``to_dict`` and of pickles
    (a copy refills it on its first run).  A parameter out of its
    domain, or an ``n_x`` that is not a positive integer, raises
    :class:`InvalidInputError` naming the field."""

    kind = "stssm"
    DEFAULTS = {"a_coef": 0.5}

    n_x: int
    tau: float
    lam: float
    obs_var: float
    a_coef: float = 0.5
    noise_precision: TridiagPrecision = field(init=False, repr=False, compare=False)
    _riccati: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n_x", _check_count(self.n_x, "n_x"))
        _check_reals(("obs_var",), a_coef=self.a_coef, obs_var=self.obs_var)
        prec = chain_precision(self.tau, self.lam, self.n_x)
        object.__setattr__(self, "noise_precision", prec)

    def __getstate__(self):
        """Pickle without the memo: pickle would not keep its arrays
        read-only, and a copy refills it on its first run."""
        return {**self.__dict__, "_riccati": ()}

    @classmethod
    def chain(cls, *args, **kwargs) -> "StssmSpec":
        """The constructor under its older name, with the same arguments."""
        return cls(*args, **kwargs)

    def to_stssm(self) -> "StssmSpec":
        """The spec itself: it is its own chain model."""
        return self

    def sample_transition(
        self, x_prev: np.ndarray, rng: np.random.Generator, t: int = 2
    ) -> np.ndarray:
        """One draw of ``x_t`` per row of ``x_prev``."""
        v = sample_gmrf_chain(self.noise_precision, rng, size=x_prev.shape[:-1])
        return v if t == 1 else self.a_coef * x_prev + v

    def inner_target(self, t: int, x_prev, y_t, proposal: str = "prior"):
        """Chain stage decomposition of ``gamma_t / gamma_{t-1}``: stage
        ``d`` is the factor ``Normal(v_d; phi_d * v_{d-1}, 1 / c_d)`` of the
        noise precision's Markov factorization, shifted to the state
        ``x_t = a_coef * x_prev + v`` (Markov order 1, or 0 at ``lam = 0``)."""
        from .nested import GaussianStageTarget

        prec = self.noise_precision
        x_prev = np.asarray(x_prev, dtype=float)
        # Per-stage conditional mean is alpha_d + phi_d * x_{d-1}.
        ax = np.zeros_like(x_prev) if t == 1 else self.a_coef * x_prev
        alpha = ax.copy()
        alpha[..., 1:] -= prec.phi[1:] * ax[..., :-1]
        return GaussianStageTarget(
            alpha, prec.phi, prec.c, prec.cond_var, y_t, self.obs_var, proposal
        )


@dataclass(frozen=True)
class IndependentSsmSpec(ModelBundle):
    """``n_x`` independent copies of a scalar linear-Gaussian SSM.

    Every coordinate shares the same scalar dynamics
    ``x_1 ~ N(init_mean, init_var)``, ``x_t ~ N(a_coef * x_{t-1}, trans_var)``
    and ``y ~ N(x, obs_var)``.  By convention the observation is replicated
    across coordinates: ``y_{t,d}`` is identical for every ``d``.  A
    parameter out of its domain, or an ``n_x`` that is not a positive
    integer, raises :class:`InvalidInputError` naming the field.  A
    config block may omit ``a_coef`` but must give ``obs_var``.
    """

    kind = "independent"
    DEFAULTS = {"a_coef": 0.5, "init_mean": 0.0, "init_var": 1.0, "trans_var": 1.0}

    n_x: int
    a_coef: float
    init_mean: float = 0.0
    init_var: float = 1.0
    trans_var: float = 1.0
    obs_var: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "n_x", _check_count(self.n_x, "n_x"))
        reals = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "n_x"}
        _check_reals(("init_var", "trans_var", "obs_var"), **reals)

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
        return StssmSpec(
            n_x=self.n_x,
            tau=1.0 / self.trans_var,
            lam=0.0,
            obs_var=self.obs_var,
            a_coef=self.a_coef,
        )

    def _law(self, x_prev: np.ndarray, t: int):
        """Mean and variance of every component of ``x_t``."""
        if t == 1:
            return self.init_mean, self.init_var
        return self.a_coef * x_prev, self.trans_var

    def sample_transition(
        self, x_prev: np.ndarray, rng: np.random.Generator, t: int = 2
    ) -> np.ndarray:
        mean, var = self._law(x_prev, t)
        return mean + np.sqrt(var) * rng.standard_normal(x_prev.shape)

    def sample_obs(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Observe coordinate 1 of each row of ``x`` and replicate it
        across the coordinates."""
        y = x[..., 0] + np.sqrt(self.obs_var) * rng.standard_normal(x.shape[:-1])
        return np.repeat(y[..., None], self.n_x, axis=-1)

    def inner_target(self, t: int, x_prev, y_t, proposal: str = "prior"):
        """Per-coordinate stage decomposition of ``gamma_t / gamma_{t-1}``.

        Each stage contributes one coordinate's transition (or initial)
        and observation factor; stages do not interact (``phi = 0``, Markov
        order 0), so the backward kernel carries no cross terms.  With
        ``proposal="optimal"`` every stage weight is constant and the
        inner estimate is exact.
        """
        from .nested import GaussianStageTarget

        x_prev = np.asarray(x_prev, dtype=float)
        mean, var = self._law(x_prev, t)
        alpha = np.broadcast_to(mean, x_prev.shape).astype(float)
        var = np.full(self.n_x, var)
        return GaussianStageTarget(
            alpha, np.zeros(self.n_x), 1.0 / var, var, y_t, self.obs_var, proposal
        )


#: The ``kind`` key of a serialised spec mapped to its class.
SPEC_KINDS = {cls.kind: cls for cls in (StssmSpec, IndependentSsmSpec)}


def make_model(spec) -> ModelBundle:
    """Return ``spec`` unchanged: every spec is its own sampler/evaluator.
    Anything that is not a :class:`ModelBundle` raises ``TypeError``."""
    if not isinstance(spec, ModelBundle):
        raise TypeError(f"unsupported model spec: {type(spec).__name__}")
    return spec


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


def simulate(model: ModelBundle, T: int, seed: int) -> Dataset:
    """Draw latent and observed trajectories from the generative model.

    A pure function of ``(model, T, seed)``: identical inputs give
    bit-identical output.  A bad ``T`` raises :class:`InvalidInputError`.
    """
    T = _check_count(T, "T")
    model = make_model(model)
    rng = np.random.default_rng(seed)
    x = np.empty((T, model.n_x))
    x_prev = np.zeros(model.n_x)
    for t in range(T):
        x_prev = x[t] = model.sample_transition(x_prev, rng, t + 1)
    y = model.sample_obs(x, rng)
    return Dataset(T=T, observations=y, latent_truth=x, seed=seed)


def save_dataset(data: Dataset, model: ModelBundle, path: str | Path) -> None:
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


def load_dataset(path: str | Path) -> tuple[Dataset, ModelBundle]:
    """Read back a dataset written by :func:`save_dataset`.

    Malformed input raises ``ValueError`` naming the file: a sidecar
    field missing or refused (a ``T`` that is not a positive integer, a
    ``seed`` that is not an integer >= 0, a model field the spec
    refuses), an empty CSV, and, with the line, a row whose cell count
    differs from the header's, whose cells do not parse, or whose ``t``
    or ``d`` is outside ``1..T`` or ``1..n_x`` or repeats an earlier
    row's.  A ``(t, d)`` pair that no row gives stays NaN.
    """
    path = Path(path)
    sidecar = path.with_suffix(".meta.json")
    with open(sidecar) as fh:
        meta = json.load(fh)
    try:
        T, seed = _check_count(meta["T"], "T"), meta["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise InvalidInputError(f"seed must be a non-negative integer, got {seed!r}")
        spec = SPEC_KINDS[meta["kind"]].from_dict(meta)
    except KeyError as err:
        raise ValueError(f"{sidecar}: missing field or unknown kind {err}") from None
    except (TypeError, ValueError) as err:
        raise ValueError(f"{sidecar}: {err}") from None
    n_x = spec.n_x
    y = np.full((T, n_x), np.nan)
    x = np.full((T, n_x), np.nan)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: the file is empty")
        with_latent = "x" in header
        seen = set()
        for line, row in enumerate(reader, start=2):
            where = f"{path}, line {line}"
            if len(row) != len(header):
                raise ValueError(f"{where}: {len(row)} cells, expected {len(header)}")
            try:
                t, d = int(row[0]) - 1, int(row[1]) - 1
                values = [float(v) for v in row[2:]]
            except ValueError as err:
                raise ValueError(f"{where}: {err}") from None
            if not (0 <= t < T and 0 <= d < n_x):
                raise ValueError(
                    f"{where}: (t, d) = ({t + 1}, {d + 1}) is outside "
                    f"1..{T} x 1..{n_x}"
                )
            if (t, d) in seen:
                raise ValueError(f"{where}: (t, d) = ({t + 1}, {d + 1}) is repeated")
            seen.add((t, d))
            y[t, d] = values[0]
            if with_latent:
                x[t, d] = values[1]
    return Dataset(T, y, x if with_latent else None, seed), spec
