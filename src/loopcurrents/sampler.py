"""Monte Carlo samplers for graphs beyond enumeration scale.

Samplers are statistical cross-check tools only: certification always goes
through the exact modules.  The RNG is Philox (counter-based), so every
stream is reproducible from its seed.  Acceptance ratios use double
precision; the tests check the chain's exact one-proposal transition
matrix for detailed balance against the loop-model weights.  numpy loads on
the first draw (:func:`make_rng`, :func:`loop_law`), so importing this
module, and every command that draws nothing, runs without it.

Stream contract.  A coupled draw (:func:`sample_stream`) reads one uniform
per loop copy, then one coin per edge for the Bernoulli layer, then, for
the pushforward, one bit per element of its cycle basis.  The chain
(:func:`loop_chain`) reads blocks of :data:`CHAIN_BLOCK` basis picks, each
followed by as many coins.  Both read their stream in a fixed order, so
the draws of a shorter request are a prefix of those of a longer one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import islice
from typing import TYPE_CHECKING, Iterator

from .errors import CapExceededError, LoopCurrentsError, ParametrizationError
from .graphs import Graph, cycle_space_basis
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
    """The loop model's support in mask order and its double-precision CDF,
    the table ``Generator.choice(p=probs)`` builds and searches."""
    import numpy as np

    d = loop_o1(g, x)
    masks = sorted(d.nums)
    mass = d.z * d.den
    probs = np.array([float(d.nums[m] / mass) for m in masks])
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    return masks, cdf


# Proposals the chain draws at a time: a fixed constant, so the stream does
# not depend on how many samples are asked for.
CHAIN_BLOCK = 4096

# Most work one request may ask for, refused before the first draw: draws of
# a coupled model, or the chain's (burn_in + samples * thin) * dim
# proposals (its samples on a forest, where dim is 0).  At the cap, sample
# on theta[2,3,2] took 19 s and 86 MB peak RSS for double_current, 26 s for
# the pushforward, and 1.1-2.5 s for loop_mcmc (CPython 3.11, 2-vCPU Xeon);
# a held mask of a larger graph takes up to 36 bytes, 150 MB at the cap.
# The benchmark's largest request is the chain's 120,200 proposals.
SAMPLE_WORK_CAP = 1 << 22


def _check_work(what: str, size: int) -> None:
    if size > SAMPLE_WORK_CAP:
        raise CapExceededError(what, size, SAMPLE_WORK_CAP)


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
    if not 0 <= x < 1:
        raise ParametrizationError(f"x={x} outside [0,1)")
    elements = cycle_space_basis(g)
    dim = len(elements)
    # a forest has no proposals: its chain only repeats the empty state
    _check_work("chain proposals", (burn_in + samples * thin) * dim if dim else samples)
    rng = make_rng(seed)
    if dim == 0:
        for _ in range(samples):
            yield 0
        return
    xf = float(x)
    accept = [xf**d for d in range(g.edge_count + 1)]

    def proposals():
        while True:
            picks = rng.integers(0, dim, size=CHAIN_BLOCK).tolist()
            yield from zip(picks, rng.random(CHAIN_BLOCK).tolist())

    moves = proposals()
    state = 0

    def sweep(n_sweeps: int):
        nonlocal state
        for pick, coin in islice(moves, n_sweeps * dim):
            new = state ^ elements[pick]
            delta = new.bit_count() - state.bit_count()
            if delta <= 0 or coin < accept[delta]:
                state = new

    sweep(burn_in)
    for _ in range(samples):
        sweep(thin)
        yield state


# ---------------------------------------------------------------------------
# Coupled models

# The one model drawn through a pushforward: a uniform even subgraph of a
# double-current draw.
PUSHFORWARD = "uniform_even_of_double_current"
PUSHFORWARD_BASE = "double_current"
COUPLED_MODELS = (*MODELS, PUSHFORWARD)


def sample_stream(model: str, g: Graph, x: Fraction, seed: int, count: int) -> list[int]:
    """``count`` draws from a union-coupled model via its definition: each
    loop layer by searching the exact loop law's CDF, the Bernoulli layer
    with the double-precision parameter, and the pushforward as a random
    XOR of a cycle basis of the double current drawn (memoised per mask)."""
    if model not in COUPLED_MODELS:
        raise LoopCurrentsError(f"unknown model tag {model!r}; choose from {COUPLED_MODELS}")
    _check_work("sample draws", count)
    x = Fraction(x)
    push = model == PUSHFORWARD
    copies, p = MODELS[PUSHFORWARD_BASE if push else model]
    p_float = None if p is None else float(p(x))
    rng = make_rng(seed)
    masks, cdf = loop_law(g, x)
    bits = [] if p_float is None else [1 << i for i in range(g.edge_count)]
    basis_of = cache(lambda mask: cycle_space_basis(g, mask))
    draws = []
    for _ in range(count):
        u = rng.random(copies + len(bits))
        mask = 0
        for k in cdf.searchsorted(u[:copies], side="right").tolist():
            mask |= masks[k]
        for bit, coin in zip(bits, u[copies:].tolist()):
            if coin < p_float:
                mask |= bit
        if push:
            basis = basis_of(mask)
            flips = rng.integers(0, 2, size=len(basis)).tolist() if basis else ()
            mask = 0
            for c, flip in zip(basis, flips):
                if flip:
                    mask ^= c
        draws.append(mask)
    return draws


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
