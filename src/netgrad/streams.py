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
served sequence equals the per-call sequence. A refill leaves a stream's
generator ahead of what has been served: once a stream has served a block,
its generator must not be drawn from directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["COIN_BLOCK", "NOISE_BLOCK_DOUBLES", "StreamBundle"]

#: Coin uniforms drawn per refill of the coin block.
COIN_BLOCK = 1024
#: Bound on the doubles of one bundle's noise buffer (256 KiB); a block holds
#: at least one iteration however large ``m * d`` is.
NOISE_BLOCK_DOUBLES = 2**15


def _generator(seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seq))


@dataclass
class StreamBundle:
    """Independent random streams for one simulator run.

    Attributes:
        coin: Stream for the shared snapshot coin, one uniform per iteration.
        gossip: Stream for random edge selection.
        agents: One gradient-noise stream per agent, in agent order.
    """

    coin: np.random.Generator
    gossip: np.random.Generator
    agents: tuple[np.random.Generator, ...]
    _coins: list[float] = field(default_factory=list, init=False, repr=False, compare=False)
    _coin_next: int = field(default=0, init=False, repr=False, compare=False)
    # Shape (m, k, d): row j of agent i's contiguous (k, d) block is that
    # agent's j-th noise vector of the block. Allocated on the first noise draw.
    _noise: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _noise_next: int = field(default=0, init=False, repr=False, compare=False)

    @classmethod
    def from_seed(cls, seed: int, m: int) -> "StreamBundle":
        """Fan a single integer seed out into the per-purpose streams."""
        root = np.random.SeedSequence(seed)
        coin_seq, gossip_seq, agents_parent = root.spawn(3)
        agent_seqs = agents_parent.spawn(m)
        return cls(
            coin=_generator(coin_seq),
            gossip=_generator(gossip_seq),
            agents=tuple(_generator(s) for s in agent_seqs),
        )

    def coin_uniform(self) -> float:
        """The next uniform of the coin stream."""
        if self._coin_next == len(self._coins):
            self._coins = self.coin.random(COIN_BLOCK).tolist()
            self._coin_next = 0
        value = self._coins[self._coin_next]
        self._coin_next += 1
        return value

    def noise_rows(self, d: int) -> np.ndarray:
        """The next standard normal ``d``-vector of every agent stream.

        Returns an ``(m, d)`` view whose row ``i`` comes from ``agents[i]``.
        The view is overwritten by a later refill, so use it before the next
        call.
        """
        block = self._noise
        if block is None:
            k = max(1, NOISE_BLOCK_DOUBLES // (len(self.agents) * d))
            block = self._noise = np.empty((len(self.agents), k, d))
            self._noise_next = k
        elif block.shape[2] != d:
            raise ValueError(f"noise rows have dimension {block.shape[2]}, asked for {d}")
        if self._noise_next == block.shape[1]:
            for rng, rows in zip(self.agents, block):
                rng.standard_normal(rows.shape, out=rows)
            self._noise_next = 0
        rows = block[:, self._noise_next]
        self._noise_next += 1
        return rows
