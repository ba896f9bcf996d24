"""Local algebra morphisms between the two backends.

A morphism stores images of the source generators (graded source) or of the
whole source basis (Artinian source).  Validation checks that it is unital,
multiplicative on the stored data, and local (m maps into m).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import ValidationIssue, ValidationReport
from .linalg import Matrix, column_space_basis, kernel_basis, rank
from .monomial import TruncationError


class MorphismError(ValueError):
    pass


@dataclass(frozen=True)
class AlgebraMorphism:
    source: object
    target: object
    images: tuple  # per source basis element (Artinian) or per variable (graded)

    def apply(self, u):
        """Image of a source element."""
        S, T = self.source, self.target
        if S.kind == "artinian":
            acc = T.zero
            for coeff, img in zip(u, self.images):
                if coeff != S.field.zero:
                    acc = T.el_add(acc, T.el_scale(coeff, img))
            return acc
        acc = T.zero
        for mono, coeff in u:
            term = T.one
            for i, e in enumerate(mono):
                for _ in range(e):
                    term = T.el_mul(term, self.images[i])
            acc = T.el_add(acc, T.el_scale(coeff, term))
        return acc

    def validate(self) -> ValidationReport:
        S, T = self.source, self.target
        issues = []
        if S.kind == "artinian":
            if self.images[0] != T.one:
                issues.append(ValidationIssue("unital", (0,), "unit does not map to unit"))
            for i in range(S.dim):
                for j in range(i, S.dim):
                    lhs = T.el_mul(self.images[i], self.images[j])
                    rhs = self.apply(S.el_mul(S.basis_element(i), S.basis_element(j)))
                    if lhs != rhs:
                        issues.append(ValidationIssue(
                            "multiplicative", (i, j),
                            "phi(e_i)*phi(e_j) differs from phi(e_i*e_j)"))
            for i in range(1, S.dim):
                if not T.el_in_m(self.images[i]):
                    issues.append(ValidationIssue("local", (i,), "image of m hits a unit"))
        else:
            for gi, g in enumerate(S.ideal):
                try:
                    img = self._monomial_image(g)
                except TruncationError:
                    issues.append(ValidationIssue(
                        "well_defined", (gi,),
                        "cannot verify relation within the truncation window"))
                    continue
                if not T.el_is_zero(img):
                    issues.append(ValidationIssue(
                        "well_defined", (gi,), "ideal generator has nonzero image"))
            for i, img in enumerate(self.images):
                if not T.el_in_m(img):
                    issues.append(ValidationIssue("local", (i,), "image of a variable hits a unit"))
        return ValidationReport(valid=not issues, issues=tuple(issues), nilpotency_index=None)

    def _monomial_image(self, mono):
        T = self.target
        term = T.one
        for i, e in enumerate(mono):
            for _ in range(e):
                term = T.el_mul(term, self.images[i])
        return term

    # -- invariants ---------------------------------------------------------
    def m_source_generator_images(self) -> list:
        """Images of a generating set of m_source."""
        S = self.source
        if S.kind == "artinian":
            return [self.images[i] for i in range(1, S.dim)]
        return list(self.images)

    def extension_ideal_cols(self) -> Matrix:
        """k-basis (columns) of the ideal m_source * target, Artinian target."""
        T = self.target
        span = [T.el_mul(g, T.basis_element(t)) for g in self.m_source_generator_images()
                if not T.el_is_zero(g) for t in range(T.dim)]
        return column_space_basis(Matrix.from_columns(T.field, span, nrows=T.dim))

    def as_linear_map(self) -> Matrix:
        """k-linear matrix of the morphism (Artinian source and target only)."""
        S, T = self.source, self.target
        if S.kind != "artinian" or T.kind != "artinian":
            raise MorphismError("linear map needs Artinian source and target")
        return Matrix.from_columns(T.field, [self.images[i] for i in range(S.dim)], nrows=T.dim)

    def is_surjective(self) -> bool:
        if self.target.kind == "artinian":
            if self.source.kind == "artinian":
                return rank(self.as_linear_map()) == self.target.dim
            raise MorphismError("surjectivity for graded source onto Artinian target not supported")
        # graded target: check degreewise up to the window
        S, T = self.source, self.target
        if S.kind != "graded":
            raise MorphismError("mixed-backend surjectivity not supported")
        window = self.graded_window()
        for d in range(window + 1):
            tgt = T.basis(d)
            if not tgt:
                continue
            cols = [T.coords(self._monomial_image(m), d) for m in S.basis(d)]
            M = Matrix.from_columns(T.field, cols, nrows=len(tgt))
            if rank(M) < len(tgt):
                return False
        return True

    def graded_window(self) -> int:
        """Largest degree where images of all source degrees are representable."""
        S, T = self.source, self.target
        maxdeg = max([1] + [self._image_degree(i) for i in range(S.nvars)])
        return min(S.truncation, T.truncation // max(1, maxdeg) if maxdeg > 1 else T.truncation)

    def _image_degree(self, i: int) -> int:
        img = self.images[i]
        degs = [sum(m) for m, _ in img]
        return max(degs) if degs else 1

    def kernel_cols(self) -> Matrix:
        """k-basis of the kernel (Artinian source and target)."""
        return kernel_basis(self.as_linear_map())


def morphism_from_generator_images(S, T, images: dict) -> AlgebraMorphism:
    """Build a morphism from images of the named generators.

    For a graded source the images are per variable.  For an Artinian source
    every basis label must be a product of named generators, so basis images
    are obtained by multiplying out the label expressions.
    """
    if S.kind == "graded":
        imgs = []
        for v in S.variables:
            if v not in images:
                raise MorphismError(f"missing image for generator {v!r}")
            img = images[v]
            imgs.append(T.parse_element(img) if isinstance(img, str) else img)
        return AlgebraMorphism(S, T, tuple(imgs))
    genenv = {}
    for name, img in images.items():
        genenv[name] = T.parse_element(img) if isinstance(img, str) else img
    basis_images = []
    for i, label in enumerate(S.labels):
        if i == 0:
            basis_images.append(T.one)
            continue
        basis_images.append(_eval_label(label, genenv, T))
    return AlgebraMorphism(S, T, tuple(basis_images))


def _eval_label(label: str, genenv: dict, T):
    acc = T.one
    for part in label.replace(" ", "").split("*"):
        if "^" in part:
            name, e = part.split("^")
            reps = int(e)
        else:
            name, reps = part, 1
        if name not in genenv:
            raise MorphismError(f"label {label!r} uses unknown generator {name!r}")
        for _ in range(reps):
            acc = T.el_mul(acc, genenv[name])
    return acc


def beta0_of_mAB(phi: AlgebraMorphism):
    """Minimal number of generators of the ideal m_A B in B.

    Returns (count, exact) where exact is False when a graded target's
    truncation window may hide generators.
    """
    T = phi.target
    if T.kind == "artinian":
        N = phi.extension_ideal_cols()
        if N.ncols == 0:
            return 0, True
        msub = []
        for i in range(1, T.dim):
            for col in N.columns():
                msub.append(T.el_mul(T.basis_element(i), col))
        mN = column_space_basis(Matrix.from_columns(T.field, msub, nrows=T.dim))
        return N.ncols - mN.ncols, True
    # graded target: degreewise Nakayama within the window
    gens = [g for g in phi.m_source_generator_images() if not T.el_is_zero(g)]
    window = T.truncation - 1
    total = 0
    exact = True
    span_by_deg = {}
    for g in gens:
        dg = T.el_degree(g)
        if dg is None:
            raise MorphismError("graded beta0 needs homogeneous generator images")
        for d in range(window + 1):
            tgt = d + dg
            if tgt > window:
                continue
            for m in T.basis(d):
                prod = T.el_mul(((m, T.field.one),), g)
                span_by_deg.setdefault(tgt, []).append(T.coords(prod, tgt))
    prev_basis = {}
    for d in range(window + 1):
        vecs = span_by_deg.get(d, [])
        nb = len(T.basis(d))
        if not vecs or nb == 0:
            prev_basis[d] = Matrix.from_columns(T.field, [], nrows=nb)
            continue
        Nd = column_space_basis(Matrix.from_columns(T.field, vecs, nrows=nb))
        prev_basis[d] = Nd
        mvecs = []
        for i in range(T.nvars):
            v = T.var_element(i)
            if not v or d == 0:
                continue
            below = prev_basis.get(d - 1)
            if below is None or below.ncols == 0:
                continue
            for col in below.columns():
                el = T.from_coords(col, d - 1)
                mvecs.append(T.coords(T.el_mul(el, v), d))
        if mvecs:
            mN = column_space_basis(Matrix.from_columns(T.field, mvecs, nrows=nb))
            total += Nd.ncols - mN.ncols
        else:
            total += Nd.ncols
    if any((d == window and Nd.ncols) for d, Nd in prev_basis.items()):
        exact = False
    return total, exact
