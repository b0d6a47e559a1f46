"""Differential oracle for block symmetry: the permutation loop.

``is_block_symmetric`` walks every permutation of the left block and every
permutation of the right block of every cell, and asks that the permuted
cell carry the same value.  It builds each permuted cell through the public,
validating ``GridCell`` constructor.  ``StepSum.is_block_symmetric``
decides the same question by grouping cells under their canonical form.
"""

import itertools

from treefock.steps import GridCell, StepSum


def block_permuted(cell: GridCell, left_perm, right_perm) -> GridCell:
    return GridCell(cell.depth,
                    tuple(cell.left[i] for i in left_perm),
                    tuple(cell.right[i] for i in right_perm))


def is_block_symmetric(f: StepSum) -> bool:
    for cell, v in f.terms.items():
        p, q = cell.degrees
        for lp in itertools.permutations(range(p)):
            for rp in itertools.permutations(range(q)):
                if f.terms.get(block_permuted(cell, lp, rp)) != v:
                    return False
    return True
