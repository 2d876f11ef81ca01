"""Incremental annealing workspace: in-place moves with delta energy.

The reference SA path (``engine="reference"``) builds a brand-new
:class:`~repro.place.placement.Placement` per trial — a full dict copy
in ``with_block``, an all-pairs ``is_legal()`` scan, and an Eq. 3
re-evaluation over *every* net — even though one move touches at most
two components.  :class:`PlacementWorkspace` replaces all three:

* **In-place apply/undo** — block positions live in one mutable dict;
  an accepted move mutates it, a rejected proposal mutates nothing, and
  :meth:`undo` restores the exact pre-move state, energy included.
* **Row-bitmask legality** — occupancy is one Python int per grid
  row: bit ``x`` of ``rows[y]`` is set when a block covers cell
  ``(x, y)``.  A candidate block is checked by AND-ing the mask of its
  one-cell-inflated rectangle (clearance ``spacing=1`` exactly as
  :meth:`PlacedComponent.overlaps`) into each row that rectangle spans,
  so legality costs one integer test per row of the footprint whatever
  the number of components.
* **Delta energy** — a per-component *net adjacency* is built once from
  the :class:`~repro.place.energy.ConnectionPriorities`; a proposal
  recomputes only the nets incident to the moved component(s).

Rejected proposals — the annealer's overwhelmingly common case at low
temperature — therefore cost only an inflated-rectangle scan plus the
incident nets, and allocate nothing but the proposal record.  Energies
are exact integers (see :mod:`repro.place.energy`): a delta is the true
change, so a commit adds it to :attr:`units` and the result equals a
from-scratch :func:`~repro.place.energy.energy_units` of the new state.
That exactness is what lets a seeded incremental run make the same
accept/reject and best-so-far decisions as the reference engine (see
:mod:`repro.place.annealing`); the property tests assert it.

Legality semantics are *exactly* those of :meth:`Placement.is_legal`:
bounds, the no-full-span rule, and pairwise clearance of one cell.  The
workspace requires — and preserves — a legal placement, so a proposal
only needs to validate the blocks it moves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlacementError
from repro.place.energy import (
    ENERGY_UNIT,
    ConnectionPriorities,
    doubled_centre,
    energy_units,
    placement_energy,
)
from repro.place.placement import PlacedComponent, Placement

__all__ = ["PendingMove", "AppliedMove", "PlacementWorkspace"]

@dataclass(slots=True)
class PendingMove:
    """A legal, not-yet-applied move and its exact energy delta.

    ``changes`` holds one ``(current_block, new_x, new_y, new_width,
    new_height)`` tuple per moved component; the candidate
    :class:`PlacedComponent` objects are only materialised if the move
    is committed.  ``delta`` is the exact energy change in
    :data:`~repro.place.energy.ENERGY_UNIT`, summed over only the nets
    incident to the moved components.  Nothing in the workspace has
    changed yet; pass the proposal to :meth:`PlacementWorkspace.apply`
    (or the annealer's no-undo twin :meth:`PlacementWorkspace.commit`)
    to take it.
    """

    kind: str
    changes: tuple[tuple[PlacedComponent, int, int, int, int], ...]
    delta: int


@dataclass(slots=True)
class AppliedMove:
    """Undo token for one committed move (``delta`` as proposed)."""

    kind: str
    replacements: tuple[tuple[PlacedComponent, PlacedComponent], ...]
    delta: int


class PlacementWorkspace:
    """Mutable placement state for the incremental annealing engine."""

    def __init__(
        self, placement: Placement, priorities: ConnectionPriorities
    ) -> None:
        if not placement.is_legal():
            raise PlacementError(
                "the incremental workspace requires a legal starting placement"
            )
        self.grid = placement.grid
        self.priorities = priorities
        self._width = placement.grid.width
        self._height = placement.grid.height
        self._blocks: dict[str, PlacedComponent] = {
            cid: placement.block(cid) for cid in placement.components()
        }
        self._components: list[str] = sorted(self._blocks)
        #: Row-bitmask occupancy: bit ``x`` of ``rows[y]`` is set when a
        #: block covers cell ``(x, y)``.  Legal blocks never share a
        #: cell, so toggling a block's bits (XOR) adds or removes it.
        self.rows: list[int] = _row_masks(
            self._height, self._blocks.values()
        )
        #: Centre cache: component index -> doubled centre coordinate
        #: (:func:`~repro.place.energy.doubled_centre`) — list indexing
        #: is far cheaper than block attribute access in the delta loops.
        self._idx: dict[str, int] = {
            cid: i for i, cid in enumerate(self._components)
        }
        centres = [doubled_centre(self._blocks[c]) for c in self._components]
        self._cx: list[int] = [x for x, _y in centres]
        self._cy: list[int] = [y for _x, y in centres]
        # Validates that every net's endpoints are placed, exactly as
        # the reference path would on its first evaluation — and before
        # the adjacency below assumes the endpoints exist.
        #: Current energy as an exact count of ENERGY_UNIT.
        self.units: int = energy_units(placement, priorities)
        #: Net adjacency: cid -> ((other_index, cp units), ...).
        adjacency: dict[str, list[tuple[int, int]]] = {
            cid: [] for cid in self._blocks
        }
        for (cid_a, cid_b), units in priorities.units.items():
            adjacency[cid_a].append((self._idx[cid_b], units))
            adjacency[cid_b].append((self._idx[cid_a], units))
        self._incident: dict[str, tuple[tuple[int, int], ...]] = {
            cid: tuple(pairs) for cid, pairs in adjacency.items()
        }

    @property
    def energy(self) -> float:
        """Current Eq. 3 energy, equal to ``placement_energy`` of the
        current state."""
        return self.units * ENERGY_UNIT

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def components(self) -> list[str]:
        """Sorted component ids (same list object every call — the id
        set never changes, only positions do)."""
        return self._components

    def block(self, cid: str) -> PlacedComponent:
        try:
            return self._blocks[cid]
        except KeyError:
            raise PlacementError(f"component {cid!r} is not placed") from None

    def snapshot_blocks(self) -> dict[str, PlacedComponent]:
        """A copy of the current block assignment (blocks are frozen)."""
        return dict(self._blocks)

    def snapshot(self) -> Placement:
        """An immutable :class:`Placement` of the current state."""
        return Placement(self.grid, self._blocks)

    def full_energy(self) -> float:
        """From-scratch Eq. 3 evaluation (the verification oracle)."""
        return placement_energy(self.snapshot(), self.priorities)

    # ------------------------------------------------------------------
    # Legality
    # ------------------------------------------------------------------
    def _toggle(self, block: PlacedComponent) -> None:
        """Flip *block*'s cells in the row masks (occupy or vacate)."""
        rows = self.rows
        bits = ((1 << block.width) - 1) << block.x
        for y in range(block.y, block.y + block.height):
            rows[y] ^= bits

    def _fits(
        self, x: int, y: int, width: int, height: int,
        ignore_a: str, ignore_b: str | None = None,
    ) -> bool:
        """Bounds + no-full-span + clearance for one candidate block.

        Clearance holds iff no other block covers a cell of the
        candidate inflated by one cell on each side (clipped to the
        grid) — equivalent to ``not candidate.overlaps(other,
        spacing=1)`` for every other block.  Each row of that rectangle
        is one AND against the row mask, after clearing the bits of the
        ignored block(s) on the rows they cover.
        """
        grid_w = self._width
        grid_h = self._height
        if x < 0 or y < 0:
            return False
        if x + width > grid_w or y + height > grid_h:
            return False
        if width >= grid_w or height >= grid_h:
            return False
        x1 = x + width + 1 if x + width < grid_w else grid_w
        rect = (1 << x1) - (1 << (x - 1 if x else 0))
        y0 = y - 1 if y else 0
        y1 = y + height + 1 if y + height < grid_h else grid_h
        a = self._blocks[ignore_a]
        a_y0 = a.y
        a_y1 = a_y0 + a.height
        a_keep = ~(((1 << a.width) - 1) << a.x)
        if ignore_b is None:
            b_y0 = b_y1 = -1
            b_keep = -1
        else:
            b = self._blocks[ignore_b]
            b_y0 = b.y
            b_y1 = b_y0 + b.height
            b_keep = ~(((1 << b.width) - 1) << b.x)
        rows = self.rows
        for cy in range(y0, y1):
            row = rows[cy]
            if a_y0 <= cy < a_y1:
                row &= a_keep
            if b_y0 <= cy < b_y1:
                row &= b_keep
            if row & rect:
                return False
        return True

    # ------------------------------------------------------------------
    # Energy
    # ------------------------------------------------------------------
    def _delta_single(
        self, cid: str, new_x: int, new_y: int, new_w: int, new_h: int
    ) -> int:
        """Incident-nets energy delta of moving *cid* alone."""
        cx = self._cx
        cy = self._cy
        i = self._idx[cid]
        ox = cx[i]
        oy = cy[i]
        nx = 2 * new_x + new_w - 1
        ny = 2 * new_y + new_h - 1
        delta = 0
        for oi, units in self._incident[cid]:
            bx = cx[oi]
            by = cy[oi]
            delta += (
                abs(nx - bx) + abs(ny - by) - abs(ox - bx) - abs(oy - by)
            ) * units
        return delta

    def _delta_pair(
        self,
        old_a: PlacedComponent,
        old_b: PlacedComponent,
        ax: int, ay: int, bx_o: int, by_o: int,
    ) -> int:
        """Incident-nets delta of moving two components at once (swap).

        ``(ax, ay)`` / ``(bx_o, by_o)`` are the new origins of *old_a* /
        *old_b*; footprints are unchanged by a swap.
        """
        cx = self._cx
        cy = self._cy
        idx = self._idx
        ia = idx[old_a.cid]
        ib = idx[old_b.cid]
        oax = cx[ia]
        oay = cy[ia]
        obx = cx[ib]
        oby = cy[ib]
        nax = 2 * ax + old_a.width - 1
        nay = 2 * ay + old_a.height - 1
        nbx = 2 * bx_o + old_b.width - 1
        nby = 2 * by_o + old_b.height - 1
        delta = 0
        for oi, units in self._incident[old_a.cid]:
            if oi == ib:
                # The net between the moved pair: count it once, with
                # both endpoints at their new positions.
                delta += (
                    abs(nax - nbx) + abs(nay - nby)
                    - abs(oax - obx) - abs(oay - oby)
                ) * units
                continue
            bx = cx[oi]
            by = cy[oi]
            delta += (
                abs(nax - bx) + abs(nay - by) - abs(oax - bx) - abs(oay - by)
            ) * units
        for oi, units in self._incident[old_b.cid]:
            if oi == ia:
                continue
            bx = cx[oi]
            by = cy[oi]
            delta += (
                abs(nbx - bx) + abs(nby - by) - abs(obx - bx) - abs(oby - by)
            ) * units
        return delta

    # ------------------------------------------------------------------
    # Move proposals (legality + delta; nothing is mutated)
    # ------------------------------------------------------------------
    def propose_translate(self, cid: str, x: int, y: int) -> PendingMove | None:
        """Translate *cid* to origin ``(x, y)``; ``None`` when illegal."""
        old = self.block(cid)
        if not self._fits(x, y, old.width, old.height, cid):
            return None
        delta = self._delta_single(cid, x, y, old.width, old.height)
        return PendingMove(
            "translate", ((old, x, y, old.width, old.height),), delta
        )

    def propose_rotate(self, cid: str) -> PendingMove | None:
        """Transpose *cid*'s footprint in place; ``None`` when illegal."""
        old = self.block(cid)
        width, height = old.height, old.width
        if not self._fits(old.x, old.y, width, height, cid):
            return None
        delta = self._delta_single(cid, old.x, old.y, width, height)
        return PendingMove("rotate", ((old, old.x, old.y, width, height),), delta)

    def propose_swap(self, cid_a: str, cid_b: str) -> PendingMove | None:
        """Exchange the origins of two components; ``None`` when illegal."""
        if cid_a == cid_b:
            return None
        old_a = self.block(cid_a)
        old_b = self.block(cid_b)
        if not self._fits(old_b.x, old_b.y, old_a.width, old_a.height, cid_a, cid_b):
            return None
        if not self._fits(old_a.x, old_a.y, old_b.width, old_b.height, cid_a, cid_b):
            return None
        # Clearance of the swapped pair against each other (the row
        # test above ignored both).  Inline inflated-rectangle test ==
        # PlacedComponent.overlaps(spacing=1) on the moved blocks.
        if not (
            old_b.x + old_a.width + 1 <= old_a.x
            or old_a.x + old_b.width + 1 <= old_b.x
            or old_b.y + old_a.height + 1 <= old_a.y
            or old_a.y + old_b.height + 1 <= old_b.y
        ):
            return None
        delta = self._delta_pair(old_a, old_b, old_b.x, old_b.y, old_a.x, old_a.y)
        return PendingMove(
            "swap",
            (
                (old_a, old_b.x, old_b.y, old_a.width, old_a.height),
                (old_b, old_a.x, old_a.y, old_b.width, old_b.height),
            ),
            delta,
        )

    # ------------------------------------------------------------------
    # Apply / undo
    # ------------------------------------------------------------------
    def commit(self, move: PendingMove) -> None:
        """Commit a proposal without building an undo token.

        The annealer's fast path — identical state transition to
        :meth:`apply`, minus the :class:`AppliedMove` record.
        """
        blocks = self._blocks
        for old, _x, _y, _w, _h in move.changes:
            if blocks.get(old.cid) is not old:
                raise PlacementError(
                    f"stale move: block of {old.cid!r} changed since the "
                    "proposal was made"
                )
        for old, _x, _y, _w, _h in move.changes:
            self._toggle(old)
        idx = self._idx
        cx = self._cx
        cy = self._cy
        for old, x, y, w, h in move.changes:
            new = PlacedComponent(old.cid, x, y, w, h)
            self._toggle(new)
            blocks[old.cid] = new
            i = idx[old.cid]
            cx[i] = 2 * x + w - 1
            cy[i] = 2 * y + h - 1
        self.units += move.delta

    def apply(self, move: PendingMove) -> AppliedMove:
        """Commit a proposal; returns the undo token."""
        self.commit(move)
        replacements = tuple(
            (old, self._blocks[old.cid]) for old, _x, _y, _w, _h in move.changes
        )
        return AppliedMove(move.kind, replacements, move.delta)

    def undo(self, applied: AppliedMove) -> None:
        """Reverse a committed move."""
        blocks = self._blocks
        for _old, new in applied.replacements:
            if blocks.get(new.cid) is not new:
                raise PlacementError(
                    f"cannot undo: block of {new.cid!r} changed after the move"
                )
        for _old, new in applied.replacements:
            self._toggle(new)
        idx = self._idx
        cx = self._cx
        cy = self._cy
        for old, _new in applied.replacements:
            self._toggle(old)
            blocks[old.cid] = old
            i = idx[old.cid]
            cx[i], cy[i] = doubled_centre(old)
        self.units -= applied.delta

    # ------------------------------------------------------------------
    # Invariant checks (test / paranoid-mode hooks)
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Assert occupancy + energy invariants against the from-scratch
        oracle.

        Raises :class:`PlacementError` when the row masks disagree with
        the blocks, the placement is illegal, or the maintained energy
        differs from a full ``energy_units`` recompute at all.
        """
        if _row_masks(self._height, self._blocks.values()) != self.rows:
            raise PlacementError("row occupancy masks out of sync with blocks")
        for cid, block in self._blocks.items():
            i = self._idx[cid]
            if (self._cx[i], self._cy[i]) != doubled_centre(block):
                raise PlacementError(
                    f"centre cache out of sync for component {cid!r}"
                )
        placement = self.snapshot()
        if not placement.is_legal():
            raise PlacementError(
                "workspace holds an illegal placement: "
                + "; ".join(placement.violations())
            )
        exact = energy_units(placement, self.priorities)
        if exact != self.units:
            raise PlacementError(
                f"incremental energy drifted: maintained {self.units!r} "
                f"vs recomputed {exact!r} energy units"
            )


def _row_masks(height: int, blocks) -> list[int]:
    """Row bitmasks of *blocks* built from scratch (bits OR-ed in, so
    an overlapping input still yields the covered-cell set)."""
    rows = [0] * height
    for block in blocks:
        bits = ((1 << block.width) - 1) << block.x
        for y in range(block.y, block.y + block.height):
            rows[y] |= bits
    return rows
