"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a structural invariant (Hermiticity, trace, dims, ...)."""


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds the supported problem size."""


_DENSE_ENTRIES = 2**24  # entries a dense array built from a size parameter may have (Fock cutoffs, copy counts)
