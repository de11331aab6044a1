"""The shared GPU pool: exclusive leases, fail-stop and recovery bookkeeping.

Queries lease GPU subsets exclusively — the engine's contention model
covers streams *within* one GPU, not co-located independent queries —
so the pool is plain set arithmetic: ``free``, ``dead``, and a map of
active leases.  Leases always take the lowest free indices, which keeps
placement (and therefore the whole simulation) deterministic.

A ``gpu -> holder`` reverse map mirrors ``leases`` so ``fail()`` —
once per injected failure — finds the lease that held the GPU with a
dict lookup instead of a scan over every active lease; ``holder_of``
exposes the same lookup.

``fail`` marks a GPU dead wherever it is; ``revive`` returns a healed
GPU to service (``repair:G@T`` specs); ``resize`` swaps a holder's
lease for a different GPU set (elastic grow/shrink).  The invariants —
``free``, ``dead`` and the leased set pairwise consistent, dead GPUs
never handed out — are property-tested over random operation sequences
in ``tests/serve/test_pool_properties.py``.
"""

from __future__ import annotations

__all__ = ["GpuPool", "PoolError"]


class PoolError(RuntimeError):
    """Raised on impossible pool operations (double lease, bad release)."""


class GpuPool:
    """Tracks which pool GPUs are free, leased, or dead.

    ``fail`` marks a GPU dead wherever it is; a lease holding a dead
    GPU keeps it listed (the query's fault plan handles the failure),
    but ``release`` never returns dead GPUs to the free set.  ``revive``
    undoes a fail-stop: the GPU rejoins the free set immediately when
    idle, or on release when a lease still lists it.
    """

    def __init__(self, num_gpus: int) -> None:
        if num_gpus < 1:
            raise PoolError("pool needs at least one GPU")
        self.num_gpus = num_gpus
        self.free: set[int] = set(range(num_gpus))
        self.dead: set[int] = set()
        self.leases: dict[str, tuple[int, ...]] = {}
        self._holder: dict[int, str] = {}

    # ------------------------------------------------------------------
    @property
    def num_free(self) -> int:
        return len(self.free)

    @property
    def num_alive(self) -> int:
        return self.num_gpus - len(self.dead)

    def holder_of(self, gpu: int) -> str | None:
        """The lease holding ``gpu``, if any."""
        return self._holder.get(gpu)

    # ------------------------------------------------------------------
    def lease(self, holder: str, count: int) -> tuple[int, ...]:
        """Lease the ``count`` lowest free GPUs to ``holder``."""
        if holder in self.leases:
            raise PoolError(f"{holder!r} already holds a lease")
        if count < 1:
            raise PoolError("lease needs at least one GPU")
        if count > len(self.free):
            raise PoolError(
                f"cannot lease {count} GPU(s): only {len(self.free)} free"
            )
        gpus = tuple(sorted(self.free)[:count])
        self.free.difference_update(gpus)
        self.leases[holder] = gpus
        for g in gpus:
            self._holder[g] = holder
        return gpus

    def release(self, holder: str) -> tuple[int, ...]:
        """Return ``holder``'s surviving GPUs to the free set."""
        try:
            gpus = self.leases.pop(holder)
        except KeyError:
            raise PoolError(f"{holder!r} holds no lease") from None
        for g in gpus:
            self._holder.pop(g, None)
        self.free.update(g for g in gpus if g not in self.dead)
        return gpus

    def resize(self, holder: str, gpus: tuple[int, ...]) -> tuple[int, ...]:
        """Swap ``holder``'s lease for ``gpus`` (elastic grow/shrink).

        Every new GPU must come from the free set; GPUs kept across the
        resize stay leased, dropped survivors return to the free set
        (dropped dead GPUs stay dead).  Dead GPUs cannot be acquired.
        """
        try:
            old = self.leases[holder]
        except KeyError:
            raise PoolError(f"{holder!r} holds no lease") from None
        new = tuple(gpus)
        if not new:
            raise PoolError("resize needs at least one GPU")
        if len(set(new)) != len(new):
            raise PoolError(f"duplicate GPUs in resize to {new}")
        kept = set(old)
        for g in new:
            if g in kept:
                continue
            if not (0 <= g < self.num_gpus):
                raise PoolError(f"GPU {g} out of range")
            if g in self.dead:
                raise PoolError(f"cannot acquire dead GPU {g}")
            if g not in self.free:
                raise PoolError(f"GPU {g} is not free")
        wanted = set(new)
        for g in old:
            if g not in wanted:
                self._holder.pop(g, None)
                if g not in self.dead:
                    self.free.add(g)
        for g in new:
            if g not in kept:
                self.free.discard(g)
            self._holder[g] = holder
        self.leases[holder] = new
        return new

    def fail(self, gpu: int) -> str | None:
        """Fail-stop ``gpu``; returns the lease that held it, if any."""
        if not (0 <= gpu < self.num_gpus):
            raise PoolError(f"GPU {gpu} out of range")
        if gpu in self.dead:
            return None
        self.dead.add(gpu)
        self.free.discard(gpu)
        return self._holder.get(gpu)

    def revive(self, gpu: int) -> bool:
        """Return a healed GPU to service; ``True`` if it was dead.

        Idempotent: reviving an alive GPU is a no-op.  A revived GPU
        still listed by a lease (it died under that query, which
        repaired onto the lease's survivors) is *not* freed here — it
        returns to the free set when the lease releases, or rejoins the
        query through an elastic resize.
        """
        if not (0 <= gpu < self.num_gpus):
            raise PoolError(f"GPU {gpu} out of range")
        if gpu not in self.dead:
            return False
        self.dead.discard(gpu)
        if gpu not in self._holder:
            self.free.add(gpu)
        return True
