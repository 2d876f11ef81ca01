"""Placement energy: Eq. 3 with Eq. 4 connection priorities.

``Energy(P) = Σ_{n_{i,j} ∈ N} mdis(i,j) · cp(i,j)`` where ``N`` is the
set of nets (component pairs connected by at least one transportation
task in the schedule) and the connection priority

``cp(i,j) = Σ_k (β·nt_k + γ·wt_k)``

sums, over the ``q`` transportation tasks between the pair, the number
``nt_k`` of concurrently running other tasks (congestion pressure) and
the wash time ``wt_k`` of the residue the task leaves (hard-to-wash
fluids should travel short, dedicated channels).

Eq. 3 is evaluated in exact integer arithmetic.  Each ``cp`` is
quantised once, when the :class:`ConnectionPriorities` is built, to an
integer count of :data:`CP_UNIT` (2^-20), and each block centre
``x + (w - 1) / 2`` is doubled to the integer ``2x + w - 1``.  The sum
is then an integer count of :data:`ENERGY_UNIT` (2^-21), scaled to a
float once.  Every engine (reference, incremental, batch, resumed) adds
the same integers, so their energies and deltas agree exactly, whatever
the order of the terms.  The float is exact while the energy stays below
2^32 (about 4.3e9).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.schedule.schedule import Schedule
from repro.place.placement import PlacedComponent, Placement

__all__ = [
    "CP_UNIT",
    "ENERGY_UNIT",
    "ConnectionPriorities",
    "build_connection_priorities",
    "doubled_centre",
    "energy_units",
    "placement_energy",
    "wirelength_energy",
]

#: Paper defaults for the Eq. 4 weighting factors.
DEFAULT_BETA = 0.6
DEFAULT_GAMMA = 0.4

#: Resolution of a quantised connection priority ``cp(i,j)``.
CP_UNIT = 2.0 ** -20
#: Value of one unit of the integer Eq. 3 sum: a :data:`CP_UNIT` times
#: half a cell (distances are taken between doubled centres).
ENERGY_UNIT = CP_UNIT / 2


def _net_key(cid_a: str, cid_b: str) -> tuple[str, str]:
    """Canonical (sorted) key of an undirected net."""
    return (cid_a, cid_b) if cid_a <= cid_b else (cid_b, cid_a)


@dataclass(frozen=True)
class ConnectionPriorities:
    """Precomputed ``cp(i,j)`` for every net of a schedule.

    Built once per schedule by :func:`build_connection_priorities`; the
    annealer then evaluates Eq. 3 in ``O(|N|)`` per candidate placement.
    Construction quantises every priority to a whole number of
    :data:`CP_UNIT`: ``priorities`` then holds the floats Eq. 3 uses,
    and ``units`` the integers the engines sum.
    """

    priorities: dict[tuple[str, str], float]
    #: ``cp`` per net as an integer count of :data:`CP_UNIT`, without
    #: self-nets (their ``mdis`` is always zero).
    units: dict[tuple[str, str], int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        counts = {
            key: round(priority / CP_UNIT)
            for key, priority in self.priorities.items()
        }
        object.__setattr__(
            self,
            "priorities",
            {key: count * CP_UNIT for key, count in counts.items()},
        )
        object.__setattr__(
            self,
            "units",
            {(a, b): count for (a, b), count in counts.items() if a != b},
        )

    def nets(self) -> list[tuple[str, str]]:
        return sorted(self.priorities)

    def priority(self, cid_a: str, cid_b: str) -> float:
        """``cp`` of the net between the two components (0 when absent)."""
        return self.priorities.get(_net_key(cid_a, cid_b), 0.0)


def build_connection_priorities(
    schedule: Schedule,
    beta: float = DEFAULT_BETA,
    gamma: float = DEFAULT_GAMMA,
) -> ConnectionPriorities:
    """Compute Eq. 4 for every net in *schedule*.

    Self-nets (a fluid evicted from and later returning to the same
    component) carry zero placement cost — their ``mdis`` is zero — and
    are omitted.
    """
    tasks = schedule.transport_tasks()
    concurrent = schedule.concurrencies(tasks)
    priorities: dict[tuple[str, str], float] = defaultdict(float)
    for task in tasks:
        if task.src_component == task.dst_component:
            continue
        key = _net_key(task.src_component, task.dst_component)
        priorities[key] += beta * concurrent[task.task_id] + gamma * task.wash_time
    return ConnectionPriorities(priorities=dict(priorities))


def doubled_centre(block: PlacedComponent) -> tuple[int, int]:
    """Twice the block's centre, ``(2x + w - 1, 2y + h - 1)``: an exact
    integer where the centre itself may fall on a half cell."""
    return (
        2 * block.x + block.width - 1,
        2 * block.y + block.height - 1,
    )


def energy_units(placement: Placement, priorities: ConnectionPriorities) -> int:
    """Eq. 3 as an exact integer count of :data:`ENERGY_UNIT`."""
    total = 0
    for (cid_a, cid_b), units in priorities.units.items():
        ax, ay = doubled_centre(placement.block(cid_a))
        bx, by = doubled_centre(placement.block(cid_b))
        total += (abs(ax - bx) + abs(ay - by)) * units
    return total


def placement_energy(
    placement: Placement, priorities: ConnectionPriorities
) -> float:
    """Eq. 3: Σ mdis(i,j) · cp(i,j) over all nets (exact, see the module
    docstring)."""
    return energy_units(placement, priorities) * ENERGY_UNIT


def wirelength_energy(placement: Placement, nets: list[tuple[str, str]]) -> float:
    """Plain half-perimeter-style objective used by the baseline placer:
    Σ mdis(i,j) with unit priorities."""
    return sum(placement.manhattan_distance(a, b) for a, b in nets)
