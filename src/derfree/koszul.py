"""Koszul complexes on a sequence of algebra elements.

Basis in homological degree n: monotone index tuples I of length n, ordered
lexicographically.  The differential is d(e_I) = sum_j (-1)^(j+1) x_{i_j}
e_{I minus i_j}; contraction against e_i gives the classical homotopy for
multiplication by x_i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import AMatrix, FreeComplex
from .linalg import Matrix, column_space_basis, span_equal


def subsets(c: int, n: int) -> list:
    """Monotone index tuples of length n inside range(c), lex order."""
    return list(itertools.combinations(range(c), n))


def wedge_sign(i: int, I: tuple) -> int:
    """Sign of e_i ^ e_I when i is moved into sorted position."""
    return -1 if sum(1 for j in I if j < i) % 2 else 1


@dataclass(frozen=True)
class KoszulComplex:
    complex: FreeComplex
    sequence: tuple  # algebra elements x_0..x_{c-1}

    @property
    def c(self) -> int:
        return len(self.sequence)

    @property
    def algebra(self):
        return self.complex.algebra

    def contraction(self, i: int) -> dict:
        """Degree +1 maps of left wedge by e_i; a homotopy for x_i * id."""
        A = self.algebra
        out = {}
        for n in range(self.c):
            src = subsets(self.c, n)
            tgt = subsets(self.c, n + 1)
            tgt_index = {I: k for k, I in enumerate(tgt)}
            entries = [[A.zero] * len(src) for _ in range(len(tgt))]
            for col, I in enumerate(src):
                if i in I:
                    continue
                J = tuple(sorted(I + (i,)))
                sgn = wedge_sign(i, I)
                val = A.one if sgn == 1 else A.el_neg(A.one)
                entries[tgt_index[J]][col] = val
            out[n] = AMatrix.from_rows(A, [tuple(r) for r in entries], ncols=len(src))
        return out


def koszul_differentials(A, blocks) -> tuple:
    """d_1..d_c of the Koszul pattern on b x b blocks z_1..z_c.

    The basis in degree n is e_I (x) v_s, ordered by I and then s, and
    d(e_I (x) v) = sum_j (-1)^j e_{I minus i_j} (x) z_{i_j} v.
    """
    c = len(blocks)
    b = blocks[0].nrows if blocks else 0
    negs = [z.neg() for z in blocks]
    diffs = []
    for n in range(1, c + 1):
        src = subsets(c, n)
        tgt_index = {I: k for k, I in enumerate(subsets(c, n - 1))}
        entries = [[A.zero] * (len(src) * b) for _ in range(len(tgt_index) * b)]
        for col, I in enumerate(src):
            for j, idx in enumerate(I):
                row = tgt_index[I[:j] + I[j + 1:]] * b
                for r, line in enumerate((blocks if j % 2 == 0 else negs)[idx].entries):
                    entries[row + r][col * b:(col + 1) * b] = line
        diffs.append(AMatrix.from_rows(A, [tuple(r) for r in entries], ncols=len(src) * b))
    return tuple(diffs)


def koszul(algebra, elements, multiplicity: int = 1) -> KoszulComplex:
    """K(x_1..x_c) tensored with a free module of the given rank."""
    A = algebra
    c = len(elements)
    b = multiplicity
    ranks = []
    labels = []
    for n in range(c + 1):
        sub = subsets(c, n)
        ranks.append(len(sub) * b)
        labels.append(tuple(f"e_{{{','.join(str(i + 1) for i in I)}}}[{s}]" if I else f"1[{s}]"
                            for I in sub for s in range(b)))
    diffs = koszul_differentials(A, [AMatrix.scalar(A, x, b) for x in elements])
    shifts = None
    if A.kind == "graded":
        degs = []
        for x in elements:
            d = A.el_degree(x)
            if d is None:
                raise ValueError("graded Koszul complexes need homogeneous elements")
            degs.append(d)
        shifts = tuple(tuple(sum(degs[i] for i in I) for I in subsets(c, n) for _ in range(b))
                       for n in range(c + 1))
    F = FreeComplex(A, 0, tuple(ranks), tuple(diffs), shifts, tuple(labels))
    return KoszulComplex(F, tuple(elements))


def koszul_annihilator_check(K: KoszulComplex) -> dict:
    """Verify the derived annihilator contains (x); Artinian: verify equality.

    Returns a report dict; uses the homotopy solver for the containment
    direction and compares k-subspaces of A for equality.
    """
    from .homotopy import derived_annihilator, solve_homotopy
    from .complexes import scalar_endo
    A = K.algebra
    report = {"contains_sequence": True, "details": []}
    for idx, x in enumerate(K.sequence):
        h = solve_homotopy(scalar_endo(K.complex, x))
        ok = h is not None
        report["details"].append({"element": A.element_to_str(x), "null_homotopic": ok})
        if not ok:
            report["contains_sequence"] = False
    if A.kind == "artinian":
        ann = derived_annihilator(K.complex)
        ann_cols = Matrix.from_columns(A.field, ann.basis, nrows=A.dim)
        ideal_span = []
        for x in K.sequence:
            for t in range(A.dim):
                ideal_span.append(A.el_mul(x, A.basis_element(t)))
        ideal_cols = column_space_basis(Matrix.from_columns(A.field, ideal_span, nrows=A.dim))
        report["equals_ideal"] = span_equal(ann_cols, ideal_cols)
        report["annihilator_dim"] = ann_cols.ncols
        report["ideal_dim"] = ideal_cols.ncols
    return report
