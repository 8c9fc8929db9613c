"""Reference checks used by the tests only."""


def is_invariant(datum, f):
    """Invariance under the simple reflections (hence under the group)."""
    return all(datum.act(f, g) == f for g in datum.generators())
