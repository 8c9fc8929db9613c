"""Reference checks used by the tests only."""


def is_invariant(datum, f):
    """Invariance under the simple reflections (hence under the group)."""
    return all(s(f) == f for s in datum.reflections())
