"""The paper's motivating workloads.

Two domain scenarios drive the experiment suite:

- :func:`cluster_load` — "a central load balancer within a local cluster
  of webservers is interested in keeping track of those nodes which are
  facing the highest loads" (Sect. 1).  Diurnal drift, AR(1) noise and
  flash-crowd bursts.
- :func:`sensor_field` — "lots of nodes observe values oscillating around
  the k-th largest value" (Sect. 1): the dense regime that motivates the
  ε-relaxation and exercises DENSEPROTOCOL.  The ``band`` parameter
  directly controls the paper's density measure σ.
"""

from __future__ import annotations

import numpy as np

from repro.streams.base import Trace
from repro.util.checks import check_epsilon, check_k, check_positive_int, require
from repro.util.rngtools import make_rng

__all__ = ["cluster_load", "sensor_field"]


def _ar1_scan(innovations: np.ndarray, coeff: float) -> np.ndarray:
    """``y[t] = coeff·y[t-1] + x[t]`` down axis 0, ``y`` starting from 0.

    ``scipy.signal.lfilter`` runs the identical multiply-then-add
    recursion in C (bit-for-bit equal to the Python loop — enforced by
    tests/streams/test_vectorization.py); without scipy the explicit
    loop is the fallback.  scipy is optional and imported here, on first
    use, rather than at module load: ``repro`` imports this module, and
    a server process that never generates an AR(1) workload should not
    pay scipy's import time and memory.
    """
    try:
        from scipy.signal import lfilter
    except ImportError:  # pragma: no cover - exercised only without scipy
        pass
    else:
        return lfilter([1.0], [1.0, -coeff], innovations, axis=0)
    y = np.zeros_like(innovations)  # pragma: no cover - scipy absent
    y[0] = innovations[0]
    for t in range(1, innovations.shape[0]):
        y[t] = coeff * y[t - 1] + innovations[t]
    return y


def cluster_load(
    num_steps: int,
    n: int,
    *,
    base: float = 5_000.0,
    diurnal_amplitude: float = 1_500.0,
    period: float = 500.0,
    ar_coeff: float = 0.9,
    noise: float = 60.0,
    burst_prob: float = 0.002,
    burst_height: float = 6_000.0,
    burst_length: int = 40,
    rng: np.random.Generator | int | None = None,
) -> Trace:
    """Webserver load streams: diurnal wave + AR(1) noise + flash crowds.

    Each node's load is ``base + diurnal + smooth noise`` and occasionally
    a "flash crowd" lifts one node by ``burst_height`` for
    ``burst_length`` steps, shuffling the top-k.  Values are rounded to
    integers (requests/s) and clipped at 0.
    """
    num_steps = check_positive_int(num_steps, "num_steps")
    n = check_positive_int(n, "n")
    require(0.0 <= ar_coeff < 1.0, f"ar_coeff must be in [0,1), got {ar_coeff}")
    rng = make_rng(rng)
    phases = rng.uniform(0.0, 2 * np.pi, size=n)
    skews = rng.uniform(-0.3, 0.3, size=n) * diurnal_amplitude
    t = np.arange(num_steps, dtype=np.float64)[:, None]
    diurnal = diurnal_amplitude * np.sin(2 * np.pi * t / period + phases[None, :])
    # AR(1) noise: all innovations drawn up front (today's RNG order),
    # the linear scan handled by _ar1_scan in one vectorized pass.  The
    # first row never carried noise (ar[0] = 0), so zero its innovation.
    innovations = rng.normal(0.0, noise, size=(num_steps, n))
    innovations[0] = 0.0
    ar = _ar1_scan(innovations, ar_coeff)
    # Flash crowds: per-(step, node) Bernoulli trigger, rectangular pulse.
    bursts = np.zeros((num_steps, n))
    triggers = np.argwhere(rng.random((num_steps, n)) < burst_prob)
    for start, node in triggers:
        stop = min(num_steps, start + burst_length)
        ramp = np.linspace(1.0, 0.3, stop - start)
        bursts[start:stop, node] += burst_height * ramp
    data = np.maximum(base + skews[None, :] + diurnal + ar + bursts, 0.0)
    return Trace(np.round(data))


def sensor_field(
    num_steps: int,
    n: int,
    k: int,
    *,
    eps: float = 0.1,
    band: int | None = None,
    level: float = 10_000.0,
    band_spread: float = 0.5,
    wobble: float = 0.35,
    low_fraction: float = 0.45,
    rng: np.random.Generator | int | None = None,
) -> Trace:
    """The dense ε-neighborhood regime (controls σ directly).

    Node layout:

    - ``band`` nodes (default ``2k``) oscillate *inside* the
      ε-neighborhood of ``level``: their values wander in
      ``[(1-ε·band_spread)·level, level/(1-ε·band_spread)]`` — so the k-th
      largest value stays ≈ ``level`` and ``σ(t) ≈ band``.
    - the remaining nodes sit clearly below, around
      ``low_fraction·(1-ε)·level``, with small noise.

    ``wobble`` scales how fast band nodes move within the neighborhood
    (fraction of the band width crossed per step, in expectation).  Larger
    wobble means more rank churn around position k — more work for exact
    algorithms, little for ε-approximate ones.
    """
    num_steps = check_positive_int(num_steps, "num_steps")
    n = check_positive_int(n, "n")
    k = check_k(k, n)
    eps = check_epsilon(eps)
    if band is None:
        band = min(n, 2 * k)
    require(k < band <= n, f"band must be in (k, n], got band={band} with k={k}, n={n}")
    require(0.0 < band_spread <= 1.0, f"band_spread must be in (0,1], got {band_spread}")
    rng = make_rng(rng)

    lo = (1.0 - eps * band_spread) * level
    hi = level / (1.0 - eps * band_spread)
    width = hi - lo
    step = max(1.0, wobble * width / 4.0)

    data = np.empty((num_steps, n), dtype=np.float64)
    # Band nodes: reflected random walk inside [lo, hi].
    band_vals = rng.uniform(lo, hi, size=band)
    # Low nodes: light noise around a clearly smaller level.
    low_level = low_fraction * (1.0 - eps) * level
    low_vals = rng.uniform(0.9 * low_level, 1.1 * low_level, size=n - band)
    # All per-step randomness drawn up front in today's order: each step
    # consumed `band` uniforms for the band moves, then `n - band` for
    # the low moves — exactly one (T, n) raw-uniform matrix, scaled per
    # column group (uniform(a, b) ≡ a + (b-a)·U bit for bit).  The loop
    # below is a pure reflect/clip scan — no RNG, no allocation beyond
    # the per-step temporaries — which keeps the trace byte-identical to
    # the pre-vectorization generator.
    u = rng.random((num_steps, n))
    band_moves = -step + (2.0 * step) * u[:, :band]
    low_moves = -2.0 + 4.0 * u[:, band:]
    cap = 1.2 * low_level
    for t in range(num_steps):
        data[t, :band] = band_vals
        data[t, band:] = low_vals
        band_vals = band_vals + band_moves[t]
        band_vals = np.where(band_vals < lo, 2 * lo - band_vals, band_vals)
        band_vals = np.where(band_vals > hi, 2 * hi - band_vals, band_vals)
        band_vals = np.clip(band_vals, lo, hi)
        low_vals = np.clip(low_vals + low_moves[t], 0.0, cap)
    return Trace(np.round(data))
