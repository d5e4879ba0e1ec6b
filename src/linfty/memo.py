"""The package's one memo policy: an object that re-reads a construction
keeps it in a dict of its own, keyed by ``(kind, ..., bound)`` and living
as long as the object, with no size limit and no eviction.  The README's
"What is cached" lists the memoized constructions and the ones left out.
"""


def memo(cache: dict, key: tuple, build):
    """``cache[key]``, built by ``build()`` on the first request.  A hit
    costs one dict lookup; ``build`` runs outside the ``except`` block, so
    its own errors carry no ``KeyError`` context."""
    try:
        return cache[key]
    except KeyError:
        pass
    value = cache[key] = build()
    return value
