"""Batch-hook dispatch guards shared across the vectorized protocols.

Several subsystems pair a scalar extension hook with a batched one —
``Query.relevant`` / ``Query.relevant_mask`` (the batch-relevance
protocol), ``ValuationState.gain`` / ``ValuationState.block`` (the
block-gain protocol both allocators evaluate gains through) and
``WaypointMobility.sample_target`` / ``sample_targets`` (the loop-free
mobility advance).  A subclass that customizes only the *scalar*
hook must not be silently routed through the inherited batch hook, which
no longer reflects its behaviour.  :func:`batch_hook_trusted` is the one
shared staleness test: the batch hook is trusted only when its defining
class sits at or below every scalar hook's defining class in the MRO —
i.e. whoever last changed the scalar semantics also vouched for the batch
form.

(The third guard of this family,
:func:`repro.spatial.coverage.masks_for_xy`, deliberately uses a different
mechanism — module identity — because its hazard is the *input signature*
of an override, not staleness: a batch hook overridden out-of-tree against
the historical ``Sequence[Location]`` contract is fresh but cannot accept
coordinate arrays.)
"""

from __future__ import annotations

__all__ = ["batch_hook_trusted"]


def batch_hook_trusted(cls: type, batch_hook: str, scalar_hooks: tuple[str, ...]) -> bool:
    """Whether ``cls``'s ``batch_hook`` still speaks for its scalar hooks.

    Returns ``False`` when any of ``scalar_hooks`` is (re)defined strictly
    below the class providing the effective ``batch_hook`` — the caller
    must fall back to the scalar path.  Hooks absent from the whole MRO
    are ignored (not every type defines every delegated hook).
    """
    mro = cls.__mro__
    batch_provider = next(c for c in mro if batch_hook in c.__dict__)
    for hook in scalar_hooks:
        owner = next((c for c in mro if hook in c.__dict__), None)
        if owner is not None and not issubclass(batch_provider, owner):
            return False
    return True
