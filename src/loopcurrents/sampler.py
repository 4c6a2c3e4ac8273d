"""Monte Carlo samplers for graphs beyond enumeration scale.

Samplers are statistical cross-check tools only: certification always goes
through the exact modules.  The RNG is Philox (counter-based), so every
stream is reproducible from its seed.  Acceptance ratios use double
precision; the tests check the chain's exact one-proposal transition
matrix for detailed balance against the loop-model weights.  numpy loads on
the first draw (:func:`make_rng`, :func:`loop_law`), so importing this
module, and every command that draws nothing, runs without it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterator

from .errors import CapExceededError, LoopCurrentsError
from .graphs import CYCLE_DIMENSION_CAP, Graph, cycle_space_basis
from .measures import MODELS, loop_o1

if TYPE_CHECKING:
    import numpy as np

RNG_ALGORITHM = "philox4x64"


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator of the stream ``seed``.  The spawn key (0,) is part
    of the stream: every pinned draw was made with it."""
    if seed < 0:
        raise LoopCurrentsError(f"seed {seed} must be non-negative")
    import numpy as np

    seq = np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    return np.random.Generator(np.random.Philox(seq))


# ---------------------------------------------------------------------------
# Loop model


def loop_law(g: Graph, x: Fraction) -> tuple[list[int], np.ndarray]:
    """The loop model's support in mask order and its double-precision law."""
    import numpy as np

    d = loop_o1(g, x)
    masks = sorted(d.nums)
    mass = d.z * d.den
    probs = np.array([float(d.nums[m] / mass) for m in masks])
    return masks, probs / probs.sum()


def sample_loop_exact(law: tuple[list[int], np.ndarray], rng: np.random.Generator) -> int:
    """Draw one even subgraph from a :func:`loop_law` by inverse CDF."""
    masks, probs = law
    return masks[int(rng.choice(len(masks), p=probs))]


def loop_chain(
    g: Graph, x: Fraction, seed: int, samples: int, thin: int = 1, burn_in: int = 0
) -> Iterator[int]:
    """Single-cycle-flip Glauber chain over even subgraphs.

    One sweep proposes ``dim`` basis-cycle toggles; a toggle from w to
    w ^ c is accepted with min(1, x^(|w^c| - |w|)).  The chain state is
    always even, and the basis spans the cycle space so it is irreducible.
    Yields ``samples`` states, ``thin`` sweeps apart, after ``burn_in`` sweeps.
    """
    if burn_in < 0 or thin < 1:
        raise LoopCurrentsError(f"need burn-in >= 0 and thin >= 1, got {burn_in} and {thin}")
    rng = make_rng(seed)
    basis = cycle_space_basis(g)
    if basis.dimension > CYCLE_DIMENSION_CAP:
        raise CapExceededError("cycle basis", basis.dimension, CYCLE_DIMENSION_CAP)
    if basis.dimension == 0:
        for _ in range(samples):
            yield 0
        return
    xf = float(x)
    elements = basis.elements
    dim = len(elements)
    state = 0

    def sweep_batch(n_sweeps: int):
        nonlocal state
        total = n_sweeps * dim
        picks = rng.integers(0, dim, size=total)
        coins = rng.random(total)
        for i in range(total):
            cyc = elements[picks[i]]
            new = state ^ cyc
            delta = new.bit_count() - state.bit_count()
            if delta <= 0 or coins[i] < xf**delta:
                state = new

    sweep_batch(burn_in)
    for _ in range(samples):
        sweep_batch(thin)
        yield state


# ---------------------------------------------------------------------------
# Coupled models

# The one model drawn through a pushforward: a uniform even subgraph of a
# double-current draw.
PUSHFORWARD = "uniform_even_of_double_current"
PUSHFORWARD_BASE = "double_current"
COUPLED_MODELS = (*MODELS, PUSHFORWARD)


def _bernoulli_mask(g: Graph, p: float, rng: np.random.Generator) -> int:
    mask = 0
    coins = rng.random(g.edge_count)
    for i in range(g.edge_count):
        if coins[i] < p:
            mask |= 1 << i
    return mask


def _uniform_even_of(g: Graph, mask: int, rng: np.random.Generator) -> int:
    """Uniform even subgraph of (V, mask): random XOR of its cycle basis."""
    basis = cycle_space_basis(g, mask)
    out = 0
    if basis.dimension:
        bits = rng.integers(0, 2, size=basis.dimension)
        for i, c in enumerate(basis.elements):
            if bits[i]:
                out ^= c
    return out


def sample_coupled(
    model: str,
    g: Graph,
    x: Fraction,
    rng: np.random.Generator,
    law: tuple | None = None,
) -> int:
    """One draw from a union-coupled model via its definition.

    Loop layers are drawn exactly (inverse CDF over the span, from ``law``
    when given); the Bernoulli layer uses the double-precision parameter.
    The pushforward model draws a double current and then a uniform even
    subgraph of it.
    """
    x = Fraction(x)
    if model == PUSHFORWARD:
        omega = sample_coupled(PUSHFORWARD_BASE, g, x, rng, law)
        return _uniform_even_of(g, omega, rng)
    if model not in MODELS:
        raise LoopCurrentsError(f"unknown model tag {model!r}; choose from {COUPLED_MODELS}")
    copies, p = MODELS[model]
    p_float = None if p is None else float(p(x))
    law = law or loop_law(g, x)
    mask = 0
    for _ in range(copies):
        mask |= sample_loop_exact(law, rng)
    if p_float is not None:
        mask |= _bernoulli_mask(g, p_float, rng)
    return mask


def sample_stream(model: str, g: Graph, x: Fraction, seed: int, count: int) -> list[int]:
    rng = make_rng(seed)
    law = loop_law(g, Fraction(x))
    return [sample_coupled(model, g, x, rng, law) for _ in range(count)]


# ---------------------------------------------------------------------------
# Dump format


def write_sample_dump(
    path, model: str, g: Graph, x: Fraction, seed: int, masks, settings: dict | None = None
):
    """One hex bitmask per line after a two-line header: the model, RNG and
    seed, then the sampler ``settings`` the draws read (none for the exact
    samplers), x and the edge count."""
    read = "".join(f"{k}={v} " for k, v in (settings or {}).items())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# model={model} rng={RNG_ALGORITHM} seed={seed}\n")
        fh.write(f"# {read}x={x} edges={g.edge_count}\n")
        for m in masks:
            fh.write(hex(m) + "\n")
