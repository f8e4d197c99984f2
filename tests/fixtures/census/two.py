"""Call-census fixture: two functions, one of them decorated."""

import functools


def called():
    return 1


@functools.lru_cache(maxsize=None)
def maybe_called():
    return 2
