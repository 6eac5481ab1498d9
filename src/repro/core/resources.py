"""Resource model: resource kinds and resource vectors.

The paper models a task ``T(c, m, d, t)`` consuming at most *c* cores,
*m* MB of memory, *d* MB of disk over *t* seconds, and an allocation
``A(c_a, m_a, d_a, t_a)`` declared before execution (Section II-B).  This
module provides the shared vocabulary for those 4-tuples:

* :class:`Resource` — a registered resource kind (cores, memory, disk,
  wall time by default; additional kinds such as GPUs can be registered,
  matching the paper's future-work extension to more resource types).
* :class:`ResourceVector` — an immutable mapping from resource kinds to
  float magnitudes with the componentwise algebra the allocator and the
  simulator need (``fits_within``, ``exceeded_by``, scaling, max, ...).

Units follow the paper: cores are fractional core counts, memory and disk
are MB, time is seconds.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Tuple


class Resource:
    """A kind of consumable resource, e.g. cores or memory.

    Resources are interned: there is exactly one instance per ``key``,
    so ``Resource("cores") is CORES``.  Constructing a resource whose key
    is already known returns the existing instance unchanged (``unit``
    and ``divisible`` are only read the first time a key is seen), and
    pickling, ``copy`` and ``deepcopy`` all hand back that instance too.
    Equality and hashing are therefore plain identity, which keeps the
    dict lookups of worker fit checks at C speed.  Instances are
    immutable.

    Attributes
    ----------
    key:
        Short stable identifier (``"cores"``, ``"memory"``, ...).
    unit:
        Human-readable unit (``"cores"``, ``"MB"``, ``"s"``).
    divisible:
        Whether fractional allocations are meaningful (cores are — the
        production traces show 0.9-core tasks — but some systems round
        them up; the allocator never forces integrality).
    """

    __slots__ = ("key", "unit", "divisible")

    key: str
    unit: str
    divisible: bool

    def __new__(cls, key: str, unit: str = "", divisible: bool = True) -> "Resource":
        existing = _INTERNED.get(key)
        if existing is not None:
            return existing
        if not isinstance(key, str) or not key or not key.replace("_", "").isalnum():
            raise ValueError(f"invalid resource key: {key!r}")
        self = object.__new__(cls)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "divisible", divisible)
        # setdefault is atomic: a racing constructor gets the winner.
        return _INTERNED.setdefault(key, self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Resource is immutable (cannot set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Resource is immutable (cannot delete {name!r})")

    def __reduce__(self) -> Tuple[type, Tuple[str, str, bool]]:
        # Unpickling, copy and deepcopy all re-intern through here: a
        # spawn worker gets its own canonical instance, created with the
        # same metadata if the key is new there.
        return (Resource, (self.key, self.unit, self.divisible))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Resource({self.key!r})"

    def __str__(self) -> str:
        return self.key


#: key -> the one :class:`Resource` instance for that key.
_INTERNED: Dict[str, Resource] = {}


class _ResourceNamespace:
    """Registry of known resource kinds.

    The four paper resources are predefined.  :meth:`register` adds new
    kinds (e.g. ``gpus``) so downstream users can extend the allocator
    without patching this module — the paper lists "an extension to
    additional resource types" as future work, and this hook is how the
    repo supports it.  The registry is a view of the intern table, so a
    kind constructed directly with :class:`Resource` is known too.
    """

    def register(self, key: str, unit: str = "", divisible: bool = True) -> Resource:
        """Register (or fetch, if identical) a resource kind by key."""
        existing = _INTERNED.get(key)
        if existing is not None:
            if existing.unit != unit and unit:
                raise ValueError(
                    f"resource {key!r} already registered with unit "
                    f"{existing.unit!r}, not {unit!r}"
                )
            return existing
        return Resource(key, unit, divisible)

    def get(self, key: str) -> Resource:
        """Look up a registered resource kind by key."""
        try:
            return _INTERNED[key]
        except KeyError:
            raise KeyError(
                f"unknown resource {key!r}; registered: {sorted(_INTERNED)}"
            ) from None

    def known(self) -> Tuple[Resource, ...]:
        """All registered resource kinds, in registration order."""
        return tuple(_INTERNED.values())


RESOURCES = _ResourceNamespace()

#: The paper's four resource dimensions.
CORES = RESOURCES.register("cores", unit="cores")
MEMORY = RESOURCES.register("memory", unit="MB")
DISK = RESOURCES.register("disk", unit="MB")
TIME = RESOURCES.register("time", unit="s")

#: The three dimensions the evaluation section reports AWE for.
EVALUATED_RESOURCES: Tuple[Resource, ...] = (CORES, MEMORY, DISK)


def resource(key: str) -> Resource:
    """Convenience accessor: ``resource("memory") is MEMORY``."""
    return RESOURCES.get(key)


class ResourceVector(Mapping[Resource, float]):
    """An immutable mapping from :class:`Resource` to a non-negative float.

    Used both for *consumption* (a task's hidden peak usage) and for
    *allocation* (the declared limit a worker enforces).  Components
    absent from the vector are treated as zero by the algebra, so vectors
    over different resource subsets compose safely.

    Examples
    --------
    >>> from repro.core.resources import ResourceVector, CORES, MEMORY
    >>> a = ResourceVector({CORES: 4, MEMORY: 1024})
    >>> c = ResourceVector({CORES: 2, MEMORY: 900})
    >>> c.fits_within(a)
    True
    >>> sorted(r.key for r in a.exceeded_by(ResourceVector({CORES: 8})))
    ['cores']
    """

    __slots__ = ("_data", "_hash")

    def __init__(
        self,
        data: Mapping[Resource, float] | Iterable[Tuple[Resource, float]] = (),
        **by_key: float,
    ) -> None:
        items: Dict[Resource, float] = {}
        pairs = data.items() if isinstance(data, Mapping) else data
        for res, value in pairs:
            if not isinstance(res, Resource):
                res = RESOURCES.get(str(res))
            items[res] = float(value)
        for key, value in by_key.items():
            items[RESOURCES.get(key)] = float(value)
        for res, value in items.items():
            if value < 0:
                raise ValueError(f"negative {res.key} component: {value}")
            if value != value:  # NaN
                raise ValueError(f"NaN {res.key} component")
        self._data = items
        self._hash: int | None = None

    # -- Mapping protocol -------------------------------------------------

    def __getitem__(self, res: Resource) -> float:
        if not isinstance(res, Resource):
            res = RESOURCES.get(str(res))
        return self._data.get(res, 0.0)

    def __iter__(self) -> Iterator[Resource]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, res: object) -> bool:
        return res in self._data

    @property
    def raw(self) -> Dict[Resource, float]:
        """The internal component dict — treat as read-only.

        Hot paths (worker fit checks, accounting folds) iterate this
        directly; the Mapping ABC's ``items()``/``__iter__`` cost an
        order of magnitude more per access.
        """
        return self._data

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> Dict[str, float]:
        """JSON-safe form keyed by resource key (exact float round-trip)."""
        return {res.key: value for res, value in self._data.items()}

    @classmethod
    def from_state(cls, state: Mapping[str, float]) -> "ResourceVector":
        """Rebuild a vector captured by :meth:`state_dict`."""
        return cls({RESOURCES.get(key): float(value) for key, value in state.items()})

    # -- algebra -----------------------------------------------------------

    def _resources_union(self, other: "ResourceVector") -> Tuple[Resource, ...]:
        seen = dict.fromkeys(self._data)
        seen.update(dict.fromkeys(other._data))
        return tuple(seen)

    def fits_within(self, limit: "ResourceVector") -> bool:
        """True if every component of self is <= the limit's component.

        This is the success condition of Section II-B: a task executes
        successfully only if ``c <= c_a``, ``m <= m_a``, ``d <= d_a`` and
        ``t <= t_a`` for every tracked resource.
        """
        return all(self[r] <= limit[r] for r in self._resources_union(limit))

    def exceeded_by(self, usage: "ResourceVector") -> Tuple[Resource, ...]:
        """Resources where ``usage`` strictly exceeds this vector (a limit)."""
        return tuple(
            r for r in self._resources_union(usage) if usage[r] > self[r]
        )

    def componentwise_max(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            {r: max(self[r], other[r]) for r in self._resources_union(other)}
        )

    def componentwise_min(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            {r: min(self[r], other[r]) for r in self._resources_union(other)}
        )

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            {r: self[r] + other[r] for r in self._resources_union(other)}
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        """Componentwise difference, clamped at zero (vectors stay valid)."""
        return ResourceVector(
            {r: max(0.0, self[r] - other[r]) for r in self._resources_union(other)}
        )

    def __mul__(self, factor: float) -> "ResourceVector":
        if factor < 0:
            raise ValueError("cannot scale a ResourceVector by a negative factor")
        return ResourceVector({r: v * factor for r, v in self._data.items()})

    __rmul__ = __mul__

    def replace(self, res: Resource, value: float) -> "ResourceVector":
        """Return a copy with one component replaced."""
        data = dict(self._data)
        data[res] = float(value)
        return ResourceVector(data)

    def restrict(self, resources: Iterable[Resource]) -> "ResourceVector":
        """Project onto a subset of resources (missing ones become absent)."""
        keep = set(resources)
        return ResourceVector({r: v for r, v in self._data.items() if r in keep})

    def is_zero(self) -> bool:
        return all(v == 0.0 for v in self._data.values())

    # -- equality / repr ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceVector):
            return NotImplemented
        if self._data == other._data:
            # Fast path: identical component dicts (C-level compare).
            return True
        # Slow path handles explicit-zero vs absent components.
        return all(
            self[r] == other[r] for r in self._resources_union(other)
        )

    def __hash__(self) -> int:
        # Vectors live in scheduler memo sets on the dispatch hot path;
        # compute the (immutable) hash once.
        if self._hash is None:
            self._hash = hash(
                tuple(sorted((r.key, v) for r, v in self._data.items() if v))
            )
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{r.key}={v:g}" for r, v in sorted(self._data.items(), key=lambda kv: kv[0].key)
        )
        return f"ResourceVector({inner})"

    # -- convenience constructors -------------------------------------------

    @staticmethod
    def of(
        cores: float = 0.0,
        memory: float = 0.0,
        disk: float = 0.0,
        time: float = 0.0,
    ) -> "ResourceVector":
        """Build a vector over the paper's four standard resources.

        Zero components are dropped so the vector only carries the
        dimensions actually in play.
        """
        data: Dict[Resource, float] = {}
        if cores:
            data[CORES] = float(cores)
        if memory:
            data[MEMORY] = float(memory)
        if disk:
            data[DISK] = float(disk)
        if time:
            data[TIME] = float(time)
        return ResourceVector(data)


#: The worker shape used throughout the paper's evaluation (Section V-A):
#: 16 cores, 64 GB memory, 64 GB disk.
PAPER_WORKER_CAPACITY = ResourceVector.of(cores=16, memory=64_000, disk=64_000)

#: The exploratory-mode allocation of Section V-A: 1 core, 1 GB memory,
#: 1 GB disk per task until enough records are collected.
PAPER_EXPLORATORY_ALLOCATION = ResourceVector.of(cores=1, memory=1_000, disk=1_000)
