"""Shared error types."""


class BoundInsufficientError(ValueError):
    """A truncation bound is too small for the requested data: a product,
    dimension or class query beyond the computed degrees, a bound below a
    relation's degree, or a resolution step that needs more internal degrees.

    `degree` is the degree that was needed and `bound` the bound it passed;
    `step` is the resolution step that needed it, None outside a resolution.
    """

    def __init__(self, what: str, degree: int, bound: int, step: int | None = None):
        self.degree, self.bound, self.step = degree, bound, step
        super().__init__(f"{what} needs degree {degree}, beyond bound {bound}")
