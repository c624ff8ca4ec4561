"""Deterministic random stream plumbing for simulator runs.

One run seed fans out into independent counter-based streams: a coin stream
for the global snapshot draws, a gossip stream for random edge selection, and
one gradient-noise stream per agent. Keeping the purposes separated means a
feature that stops drawing (for example a noiseless run) never shifts the
draws of an unrelated feature, and single- versus multi-threaded drivers see
identical sequences.

The iterations take their coin uniforms and noise rows from the bundle, which
serves them from fixed blocks and refills a block only when it runs out: the
coin stream in blocks of :data:`COIN_BLOCK` uniforms, each agent stream in
blocks of ``k`` noise vectors with ``k * m * d`` at most
:data:`NOISE_BLOCK_DOUBLES`. One block draw from a Philox generator yields the
same values, in the same order, as the same number of single draws, so the
served sequence equals the per-call sequence. Noise rows come scaled by the
noise model's coordinate deviation, which the first draw fixes: a refill
draws every agent's vectors in agent order into a staging array and writes
them, scaled, into a contiguous ``(k, m, d)`` block with one multiply, so
each served ``(m, d)`` row block is contiguous and ready to add. A refill
leaves a stream's generator ahead of what has been served: once a stream has
served a block, its generator must not be drawn from directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["COIN_BLOCK", "NOISE_BLOCK_DOUBLES", "StreamBundle"]

#: Coin uniforms drawn per refill of the coin block.
COIN_BLOCK = 1024
#: Bound on the doubles of one bundle's noise block (256 KiB), and of its
#: staging array; a block holds at least one iteration however large
#: ``m * d`` is.
NOISE_BLOCK_DOUBLES = 2**15


def _generator(seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seq))


@dataclass
class StreamBundle:
    """Independent random streams for one simulator run.

    Attributes:
        coin: Stream for the shared snapshot coin, one uniform per iteration.
        gossip: Stream for random edge selection.
        agent_parent: Seed sequence the agent streams are spawned from.
        m: Number of agents, at least 1.
        agents: One gradient-noise stream per agent, in agent order, spawned
            from ``agent_parent`` on first read. A noiseless run never reads
            them and so never pays for them; the streams are the same as if
            they had been spawned up front.
    """

    coin: np.random.Generator
    gossip: np.random.Generator
    agent_parent: np.random.SeedSequence
    m: int
    _agents: tuple[np.random.Generator, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _coins: list[float] = field(default_factory=list, init=False, repr=False, compare=False)
    _coin_next: int = field(default=0, init=False, repr=False, compare=False)
    # Shape (k, m, d): entry j is the j-th pre-scaled (m, d) noise row of the
    # block, row i of it from agent i; ``_rows`` lists the entries as views.
    # ``_staging`` (m, k, d) takes each agent's (k, d) draw. All three are
    # allocated on the first noise draw, which fixes ``_noise_d`` and
    # ``_noise_scale``.
    _noise: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _staging: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _rows: list[np.ndarray] = field(default_factory=list, init=False, repr=False, compare=False)
    _noise_next: int = field(default=0, init=False, repr=False, compare=False)
    _noise_d: int = field(default=0, init=False, repr=False, compare=False)
    _noise_scale: float = field(default=0.0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"a stream bundle needs m >= 1 agents, got m={self.m}")

    @classmethod
    def from_seed(cls, seed: int, m: int) -> "StreamBundle":
        """Fan a single integer seed out into the per-purpose streams."""
        root = np.random.SeedSequence(seed)
        coin_seq, gossip_seq, agents_parent = root.spawn(3)
        return cls(_generator(coin_seq), _generator(gossip_seq), agents_parent, m)

    @property
    def agents(self) -> tuple[np.random.Generator, ...]:
        if self._agents is None:
            self._agents = tuple(_generator(s) for s in self.agent_parent.spawn(self.m))
        return self._agents

    def coin_uniform(self) -> float:
        """The next uniform of the coin stream."""
        if self._coin_next == len(self._coins):
            self._coins = self.coin.random(COIN_BLOCK).tolist()
            self._coin_next = 0
        value = self._coins[self._coin_next]
        self._coin_next += 1
        return value

    def noise_rows(self, d: int, scale: float) -> np.ndarray:
        """The next ``d``-vector of every agent stream, times ``scale``.

        Returns a C-contiguous ``(m, d)`` view whose row ``i`` is ``scale``
        times the next standard normal vector of ``agents[i]``. A refill
        draws each agent's ``(k, d)`` rows in agent order into a staging
        array and writes them, scaled, into the ``(k, m, d)`` block with one
        multiply; ``scale * z`` rounds once either way, so every row has the
        bits of ``scale * agents[i].standard_normal(d)``. The first call
        fixes ``d`` and ``scale``, and asking for another raises
        ``ValueError``. The view is overwritten by a later refill, so use it
        before the next call.
        """
        if d != self._noise_d or scale != self._noise_scale:
            if self._noise is not None:
                raise ValueError(
                    f"noise rows are fixed at dimension {self._noise_d} and scale "
                    f"{self._noise_scale!r}, asked for {d} and {scale!r}"
                )
            k = max(1, NOISE_BLOCK_DOUBLES // (self.m * d))
            self._staging = np.empty((self.m, k, d))
            self._noise = np.empty((k, self.m, d))
            self._rows = list(self._noise)
            self._noise_next = k
            self._noise_d, self._noise_scale = d, scale
        if self._noise_next == len(self._rows):
            staging = self._staging
            for rng, rows in zip(self.agents, staging):
                rng.standard_normal(rows.shape, out=rows)
            np.multiply(staging.transpose(1, 0, 2), scale, out=self._noise)
            self._noise_next = 0
        rows = self._rows[self._noise_next]
        self._noise_next += 1
        return rows
