"""Trace-driven mobility: replay a recorded, synthesized or generated world.

The RNC experiments of the paper replay a real campaign trace.  Our
substitute synthesizer (:mod:`repro.mobility.nokia`) produces a
:class:`MobilityTrace` which this model replays deterministically, so every
algorithm sees identical sensor positions across compared runs — exactly
what the paper's methodology requires for a fair algorithm comparison.

A seeded generative world (the RWM walk, the churn fleet) needs no
recording at all: its trace keeps the :class:`MobilityRecipe` that
regenerates it, and each replay steps its own freshly seeded model one
slot at a time, so a world costs one live frame per replay whatever its
length.
"""

from __future__ import annotations

import json
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from ..spatial import Location, Region
from .base import MobilityModel

__all__ = ["MobilityRecipe", "MobilityTrace", "TraceMobility"]


def _frame_index(item, n_slots: int) -> int:
    """``item`` as a frame index in ``[0, n_slots)`` (negatives count back)."""
    t = item.__index__()
    if t < 0:
        t += n_slots
    if not (0 <= t < n_slots):
        raise IndexError("trace frame index out of range")
    return t


class _LazyLocationFrames(SequenceABC):
    """Per-slot ``Location`` tuples materialized on demand from xy arrays.

    Array-native producers (:meth:`MobilityModel.run_xy`) record stacked
    ``(n, 2)`` frames; this sequence presents them through the historical
    ``frames[t][i] -> Location`` interface, building (and caching) a
    frame's tuple only when some legacy consumer actually indexes it.  The
    replay hot path (:meth:`MobilityTrace.frame_xy` →
    ``FleetState.set_positions``) reads the arrays directly and never
    triggers materialization.  Lazy-to-lazy equality compares the xy
    arrays; comparing against an eager tuple — or hashing — must
    materialize every frame to stay consistent with the eager form's
    tuple semantics, so treat ``hash(trace)`` / tuple comparisons of a
    metro-scale lazy trace as O(n_slots × n_sensors) operations (nothing
    in the slot path does either).
    """

    __slots__ = ("_xy", "_frames")

    def __init__(self, xy_frames: Sequence[np.ndarray]) -> None:
        self._xy = list(xy_frames)
        self._frames: list[tuple[Location, ...] | None] = [None] * len(self._xy)

    def xy(self, t: int) -> np.ndarray:
        return self._xy[t]

    def __len__(self) -> int:
        return len(self._xy)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return tuple(self[t] for t in range(*item.indices(len(self))))
        t = _frame_index(item, len(self))
        frame = self._frames[t]
        if frame is None:
            frame = tuple(Location(float(x), float(y)) for x, y in self._xy[t])
            self._frames[t] = frame
        return frame

    def _as_tuple(self) -> tuple:
        return tuple(self[t] for t in range(len(self)))

    def __eq__(self, other) -> bool:
        if isinstance(other, _LazyLocationFrames):
            if len(self) != len(other):
                return False
            return all(
                np.array_equal(self._xy[t], other._xy[t]) for t in range(len(self))
            )
        if isinstance(other, tuple):
            return self._as_tuple() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._as_tuple())


def _read_only(xy: np.ndarray) -> np.ndarray:
    """A view of ``xy`` that a caller cannot write through."""
    view = xy.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class MobilityRecipe:
    """A seeded generative world: what regenerates its trace, not the frames.

    Slot 0 is ``model(region, n_sensors, np.random.default_rng(seed),
    **params)`` and every later slot is one :meth:`MobilityModel.advance`.
    The model owns that private generator and is stepped exactly as
    :meth:`MobilityModel.run_xy` steps it, so every replay of the recipe
    draws the same positions and no two replays share state.  The recipe
    is plain data — ``model`` a module-level class, ``params`` a sorted
    tuple of hashable values — so it pickles into worker processes and
    compares and hashes without running the model.
    """

    model: type
    region: Region
    n_sensors: int
    n_slots: int
    seed: int
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        model = self.model
        if (
            not isinstance(model, type)
            or not issubclass(model, MobilityModel)
            or "<locals>" in model.__qualname__
        ):
            raise TypeError(
                f"a recipe needs a module-level MobilityModel class, got {model!r}"
            )
        if self.n_sensors < 1 or self.n_slots < 1:
            raise ValueError("a generated trace needs at least one sensor and one slot")
        hash(self.params)  # plain data only: refuse a list or dict value here

    def start(self) -> MobilityModel:
        """The world at slot 0, on a freshly seeded generator."""
        return self.model(
            self.region,
            self.n_sensors,
            np.random.default_rng(self.seed),
            **dict(self.params),
        )


class _GeneratedFrames(SequenceABC):
    """A recipe's frames, produced on demand by walking it forward.

    Serves analysis callers (``frames[t]``, :meth:`MobilityTrace.frame_xy`)
    from one live model: a forward access steps it, a backward access
    restarts the recipe.  Every frame is handed out as a read-only copy,
    since a model may write its buffer in place on :meth:`advance`.
    Equality and hashing compare recipes, and pickling ships the recipe
    alone, so neither ever runs the model.
    """

    __slots__ = ("recipe", "_model", "_t")

    def __init__(self, recipe: MobilityRecipe) -> None:
        self.recipe = recipe
        self._model: MobilityModel | None = None
        self._t = 0

    def xy(self, t: int) -> np.ndarray:
        t = _frame_index(t, len(self))
        if self._model is None or t < self._t:
            self._model, self._t = self.recipe.start(), 0
        while self._t < t:
            self._model.advance()
            self._t += 1
        return _read_only(np.array(self._model.locations_xy(), dtype=float))

    def __len__(self) -> int:
        return self.recipe.n_slots

    def __getitem__(self, item):
        if isinstance(item, slice):
            return tuple(self[t] for t in range(*item.indices(len(self))))
        return tuple(Location(float(x), float(y)) for x, y in self.xy(item))

    def __eq__(self, other) -> bool:
        if isinstance(other, _GeneratedFrames):
            return self.recipe == other.recipe
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.recipe)

    def __reduce__(self):
        return (_GeneratedFrames, (self.recipe,))

    def __repr__(self) -> str:
        return f"_GeneratedFrames({self.recipe!r})"


#: Frame sequences that serve ``(n, 2)`` arrays natively.
_ARRAY_FRAMES = (_LazyLocationFrames, _GeneratedFrames)


@dataclass(frozen=True)
class MobilityTrace:
    """Every sensor's position, slot by slot.

    ``frames[t][i]`` is the location of sensor ``i`` at slot ``t``.  All
    frames must cover the same population.  A trace is either *recorded*
    (:meth:`from_frames`, :meth:`from_xy`, :meth:`load`: the frames are
    stored) or *generated* (:meth:`generated`: only the
    :class:`MobilityRecipe` is stored, and :attr:`recipe` returns it).
    Two generated traces are equal when their recipes are; a generated
    trace never equals a recorded one.
    """

    region: Region
    frames: tuple[tuple[Location, ...], ...]
    #: lazily built per-frame ``(n, 2)`` arrays (see :meth:`frame_xy`).
    _xy_cache: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        if not len(self.frames):
            raise ValueError("a trace needs at least one frame")
        if isinstance(self.frames, _GeneratedFrames):
            return
        if isinstance(self.frames, _LazyLocationFrames):
            widths = [len(xy) for xy in self.frames._xy]
        else:
            widths = [len(frame) for frame in self.frames]
        if widths[0] == 0:
            raise ValueError("a trace needs at least one sensor")
        if any(w != widths[0] for w in widths):
            raise ValueError("all frames must have the same number of sensors")

    @property
    def n_slots(self) -> int:
        return len(self.frames)

    @property
    def n_sensors(self) -> int:
        if isinstance(self.frames, _GeneratedFrames):
            return self.frames.recipe.n_sensors
        if isinstance(self.frames, _LazyLocationFrames):
            return len(self.frames.xy(0))
        return len(self.frames[0])

    @property
    def recipe(self) -> MobilityRecipe | None:
        """The generated trace's recipe (``None`` for a recorded trace)."""
        if isinstance(self.frames, _GeneratedFrames):
            return self.frames.recipe
        return None

    @classmethod
    def generated(
        cls,
        model: type,
        region: Region,
        n_sensors: int,
        n_slots: int,
        seed: int,
        **params: Any,
    ) -> "MobilityTrace":
        """The ``n_slots``-slot trace of a seeded ``model``, kept as its recipe.

        Nothing runs here: each :class:`TraceMobility` replay starts its
        own model from the :class:`MobilityRecipe`, and holds one frame.
        """
        recipe = MobilityRecipe(
            model, region, n_sensors, n_slots, seed, tuple(sorted(params.items()))
        )
        return cls(region, _GeneratedFrames(recipe))

    @classmethod
    def from_frames(cls, region: Region, frames: Sequence[Sequence[Location]]) -> "MobilityTrace":
        return cls(region, tuple(tuple(frame) for frame in frames))

    @classmethod
    def from_xy(cls, region: Region, xy_frames: Sequence[np.ndarray]) -> "MobilityTrace":
        """Array-native constructor: per-slot ``(n, 2)`` position frames.

        The trace adopts the arrays as its primary storage; ``Location``
        frames exist only as a lazy view for legacy consumers (see
        :class:`_LazyLocationFrames`), so building — and replaying — a
        10^5-sensor trace allocates no per-sensor objects.
        """
        stacked = [np.ascontiguousarray(f, dtype=float) for f in xy_frames]
        for f in stacked:
            if f.ndim != 2 or (f.size and f.shape[1] != 2):
                raise ValueError(f"xy frames must have shape (n, 2), got {f.shape}")
        return cls(region, _LazyLocationFrames(stacked))

    def frame_xy(self, t: int) -> np.ndarray:
        """Frame ``t`` as an ``(n, 2)`` float array.

        Array-native traces (:meth:`from_xy`) serve their stored frames;
        a :class:`Location` trace builds each frame's array once and
        caches it.  A generated trace walks its recipe forward to ``t``
        (a backward access restarts it) and hands out a read-only copy,
        so an analysis pass over the frames costs one model, not a
        recording.  Replays (:class:`TraceMobility`) do not come through
        here for a generated trace: each steps its own model.
        """
        frames = self.frames
        if isinstance(frames, _ARRAY_FRAMES):
            return frames.xy(t)
        xy = self._xy_cache.get(t)
        if xy is None:
            xy = np.asarray([(loc.x, loc.y) for loc in frames[t]], dtype=float)
            self._xy_cache[t] = xy
        return xy

    # ------------------------------------------------------------------
    # (de)serialization — traces are plain JSON so users can bring their own
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write the trace as JSON (region + frames of [x, y] pairs)."""
        if isinstance(self.frames, _ARRAY_FRAMES):
            frames_payload = [self.frames.xy(t).tolist() for t in range(self.n_slots)]
        else:
            frames_payload = [[[loc.x, loc.y] for loc in frame] for frame in self.frames]
        payload = {
            "region": [self.region.x_min, self.region.y_min, self.region.x_max, self.region.y_max],
            "frames": frames_payload,
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: str | Path) -> "MobilityTrace":
        """Read a trace previously written by :meth:`save`."""
        payload = json.loads(Path(path).read_text())
        region = Region(*payload["region"])
        frames = tuple(
            tuple(Location(float(x), float(y)) for x, y in frame)
            for frame in payload["frames"]
        )
        return cls(region, frames)

    def mean_presence(self, subregion: Region) -> float:
        """Average number of sensors inside ``subregion`` per slot.

        Used to validate the RNC substitute against the paper's reported
        "~120 sensors in the working subregion on average".  Vectorized
        over the stacked frames (identical closed-rectangle comparisons to
        the scalar ``contains`` walk).
        """
        total = 0
        for t in range(self.n_slots):
            total += int(subregion.contains_many(self.frame_xy(t)).sum())
        return total / self.n_slots


class TraceMobility(MobilityModel):
    """Replay a :class:`MobilityTrace` slot by slot.

    A recorded trace is served from its stored frames.  A generated trace
    is replayed from its recipe: each replay starts its own freshly seeded
    model and steps it once per :meth:`advance`, so it holds only the live
    frame and two replays of one trace never disturb each other.

    Replays hold the final frame when advanced past the end of the trace, so
    simulations slightly longer than the trace do not crash; sensors simply
    stop moving (documented behaviour, exercised in tests).
    """

    def __init__(self, trace: MobilityTrace) -> None:
        self._trace = trace
        self.reset()

    @property
    def n_sensors(self) -> int:
        return self._trace.n_sensors

    @property
    def region(self) -> Region:
        return self._trace.region

    @property
    def cursor(self) -> int:
        """Index of the frame currently being served."""
        return self._cursor

    def locations(self) -> Sequence[Location]:
        if self._model is None:
            return self._trace.frames[self._cursor]
        return tuple(Location(float(x), float(y)) for x, y in self.locations_xy())

    def locations_xy(self) -> np.ndarray:
        if self._model is None:
            return self._trace.frame_xy(self._cursor)
        return _read_only(self._model.locations_xy())

    def advance(self) -> None:
        if self._cursor < self._trace.n_slots - 1:
            self._cursor += 1
            if self._model is not None:
                self._model.advance()

    def reset(self) -> None:
        """Rewind to the first frame (reused across algorithm comparisons)."""
        self._cursor = 0
        recipe = self._trace.recipe
        self._model = None if recipe is None else recipe.start()
