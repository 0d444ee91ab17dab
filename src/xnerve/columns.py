"""Rank columns: the identity audit's face and degeneracy maps on ranks.

A column holds the ranks of cells of one enumeration block of a ``Nerve``,
that is of one object sequence.  Faces and degeneracies of a column stay in
one block, so ``audit_simplicial`` maps whole columns with list
comprehensions and compares ints, and builds a cell only for a witness.

A degeneracy is digit insertion.  s_j c repeats x_j, adds a row (1_{x_j},
e, ..., e) and a unit column; every entry of c keeps its digit, since its
hom-set or fiber is the same (Duskin, "Simplicial matrices and the nerves
of weak n-categories I", TAC 9, 2002).  So the index of s_j c in its block
is a constant plus a few runs of c's index digits moved to new places.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    from .nerve import Nerve, NerveCell, _Block

# Cells per rank column of the identity audit: the audit's memory beyond the
# level tables grows with this, not with the level.
AUDIT_CHUNK = 2048


class _Column(list):
    """Ranks of cells of one block of dimension ``dim``, as ``RankMaps``
    passes them between maps; ``faces`` keeps the rank lists of all faces
    once the face formulas have made them."""

    __slots__ = ("dim", "blk", "faces")

    def __init__(self, dim: int, blk: _Block, ranks: Sequence[int]):
        super().__init__(ranks)
        self.dim, self.blk = dim, blk
        self.faces: list[list[int]] | None = None


class RankMaps:
    """The identity audit's face and degeneracy maps on rank columns of one
    nerve, up to dimension ``maxdim``.  ``chunks(n)`` cuts each block of
    dimension n into columns of at most ``AUDIT_CHUNK`` cells.

    * d_i reads the face table of the column's dimension where the audit
      has it: dimensions n-1 and n, and n+1 below ``maxdim`` when it is
      within the budget.  Otherwise, for degenerate (n+1)-cells, it applies
      the face formulas of ``Nerve._block_faces`` to the column's indices.
    * s_j is digit insertion; on faces of the cells under audit it reads a
      table of s_j on the whole level n-1.

    A face that is not a cell raises KeyError or CompatibilityError."""

    def __init__(self, nv: Nerve, maxdim: int):
        self.nv, self.maxdim = nv, maxdim
        self.dim = -1
        self.tables: dict[int, list[tuple[int, ...]]] = {}
        self.degeneracy_tables: dict[int, list[int]] = {}
        self._plans: dict[tuple[tuple[int, ...], int], tuple[_Block, int, list[list[int]]]] = {}

    def chunks(self, n: int) -> Iterator[_Column]:
        nv = self.nv
        self.dim = n
        self.tables = {m: nv.level(m) for m in (n, n - 1) if m >= 0}
        if n < self.maxdim and nv.count_cells(n + 1) <= nv.cap:
            self.tables[n + 1] = nv.level(n + 1)
        self.degeneracy_tables = {}
        for blk in nv._dim(n):
            end = blk.start + blk.size
            for lo in range(blk.start, end, AUDIT_CHUNK):
                yield _Column(n, blk, range(lo, min(lo + AUDIT_CHUNK, end)))

    def face(self, col: _Column, i: int) -> _Column:
        m, blk, nv = col.dim, col.blk, self.nv
        table = self.tables.get(m)
        if table is not None:
            ranks = [table[r][i] for r in col]
        else:
            if col.faces is None:
                plan = nv._plan_of(m, blk)
                digits = partial(_spell, [r - blk.start for r in col])
                col.faces = nv._block_faces(m, plan, digits, partial(map, self.tables[m - 1].__getitem__))
            ranks = col.faces[i]
        return _Column(m - 1, nv._block_of[blk.seq[:i] + blk.seq[i + 1:]], ranks)

    def degeneracy(self, col: _Column, j: int) -> _Column:
        if col.dim < self.dim:  # faces of the cells under audit: s_j of the whole level below, once
            table = self.degeneracy_tables.get(j)
            if table is None:
                table = self.degeneracy_tables[j] = [
                    r for blk in self.nv._dim(col.dim) for r in self._degenerate(blk, range(blk.size), j)]
            ranks = [table[r] for r in col]
        else:
            ranks = self._degenerate(col.blk, [r - col.blk.start for r in col], j)
        return _Column(col.dim + 1, self._plan(col.blk, j)[0], ranks)

    def _degenerate(self, blk: _Block, idxs: Sequence[int], j: int) -> list[int]:
        """Ranks of s_j of the cells of ``blk`` with indices ``idxs``."""
        new, const, runs = self._plan(blk, j)
        return _spell(idxs, runs, new.start + const)

    def _plan(self, blk: _Block, j: int) -> tuple[_Block, int, list[list[int]]]:
        """(block, constant, digit runs) of s_j on one block of dimension n:
        s_j c lies in the block of c's object sequence with x_j repeated,
        and its index there is the constant, the inserted identity and
        units, plus the image of c's index under the runs."""
        plan = self._plans.get((blk.seq, j))
        if plan is None:
            nv, seq, n = self.nv, blk.seq, len(blk.seq) - 1
            xm = nv.xm
            nv._dim(n + 1)
            new = nv._block_of[seq[:j + 1] + seq[j:]]

            def pos(i: int, c: int) -> int:
                """Flat position of matrix entry (i, c) in dimension n + 1."""
                return (i - 1) * (2 * n + 4 - i) // 2 + c - i

            dest = [pos(i, c + (c > j)) if i <= j else pos(i + 1, c + 1)
                    for i in range(1, n + 1) for c in range(i, n + 1)]
            fixed = [(pos(i, j + 1), xm.fibers[seq[i]].unit) for i in range(1, j + 1)]
            fixed.append((pos(j + 1, j + 1), new.domains[pos(j + 1, j + 1)].index(xm.cat.identity[seq[j]])))
            fixed.extend((pos(j + 1, c), xm.fibers[seq[j]].unit) for c in range(j + 2, n + 2))
            new_lens = [len(dom) for dom in new.domains]
            weights = _weights(new_lens)
            const = sum(digit * weights[q] for q, digit in fixed)
            runs = _digit_runs([len(dom) for dom in blk.domains], dest, new_lens)
            plan = self._plans[blk.seq, j] = (new, const, runs)
        return plan

    def cell(self, col: _Column, pos: int) -> NerveCell:
        return self.nv.cell_at(col.dim, col[pos])


def _keep_runs(lens: Sequence[int], keep: set[int]) -> list[list[int]]:
    """The digit runs of ``_digit_runs`` that spell, from a number of the
    mixed radix ``lens``, the number its digits at the positions in
    ``keep`` make in their own mixed radix."""
    kept = sorted(keep)
    dest = [kept.index(p) if p in keep else None for p in range(len(lens))]
    return _digit_runs(lens, dest, [lens[p] for p in kept])


def _digit_runs(lens: Sequence[int], dest: Sequence[int | None], new_lens: Sequence[int]) -> list[list[int]]:
    """The map that moves digit p of the mixed radix ``lens`` to position
    ``dest[p]`` of the radix ``new_lens`` (None drops it), as runs
    [weight, span, new weight] of digits that stay adjacent: a number's
    image is the sum over runs of number // weight % span * new weight."""
    weights, new_weights = _weights(lens), _weights(new_lens)
    runs: list[list[int]] = []
    prev = None
    for p in range(len(lens) - 1, -1, -1):
        q = dest[p]
        if q is not None:
            if prev == (p + 1, q + 1):
                runs[-1][1] *= lens[p]
            else:
                runs.append([weights[p], lens[p], new_weights[q]])
            prev = (p, q)
    return runs


def _weights(lens: Sequence[int]) -> list[int]:
    """The place value of every digit of the mixed radix ``lens``."""
    out, weight = [], 1
    for size in reversed(lens):
        out.append(weight)
        weight *= size
    return out[::-1]


def _spell(idxs: Sequence[int], runs: Sequence[Sequence[int]], const: int = 0) -> list[int]:
    """``const`` plus the image of every number in ``idxs`` under the digit
    map ``runs`` of ``_digit_runs``."""
    if not runs:
        return [const] * len(idxs)
    weight, span, new = runs[0]
    col = [const + i // weight % span * new for i in idxs]
    for weight, span, new in runs[1:]:
        col = [c + i // weight % span * new for c, i in zip(col, idxs)]
    return col
