"""The one memo store of the package.

stored(keep) memoises a function as one kind, named module.function: its
keep most recent values (None: all) by argument tuple, behind
lru_cache's cache_info(), cache_parameters(), cache_clear() and
__wrapped__.  Kinds that pass modulus (the expsums tables) hold values
of a modulus above SMALL_Q = 2^17 for one modulus at a time.  Every drop
comes before the build that causes it: a full kind drops its least
recent value, and a large modulus the other moduli's large values, so a
build never shares memory with what it replaces.  COUNTS includes the
--jobs workers' counts, which families.pmap adds.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from functools import wraps

__all__ = ["COUNTS", "SMALL_Q", "stored"]

SMALL_Q = 2**17
COUNTS: dict[str, list[int]] = {}  # kind -> [hits, misses]; a miss is a build
_LARGE: list[OrderedDict] = []  # the held values of the kinds that pass modulus
_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def stored(keep: int | None, modulus=None):
    """Memoise a function in the store; modulus(*args) is a value's modulus."""
    def decorate(build):
        held = OrderedDict()  # args -> value, least recent first
        counts = COUNTS[f"{build.__module__.rpartition('.')[2]}.{build.__name__}"] = [0, 0]
        touch = held.move_to_end if keep is not None else None  # a hit becomes most recent
        if modulus is not None:
            _LARGE.append(held)

        @wraps(build)
        def memo(*args):
            try:
                value = held[args]
            except KeyError:
                pass
            else:  # a hit: a large modulus here is the one held, so none is dropped
                if touch is not None:
                    touch(args)
                counts[0] += 1
                return value
            counts[1] += 1
            if modulus is not None and (q := modulus(*args)) > SMALL_Q:  # drop, then build
                for values in _LARGE:
                    for old in [k for k, v in values.items() if SMALL_Q < v.size != q]:
                        del values[old]
            if keep is not None and len(held) >= keep:
                held.popitem(last=False)
            value = held[args] = build(*args)
            return value
        memo.cache_info = lambda: _CacheInfo(*counts, keep, len(held))
        memo.cache_parameters = lambda: {"maxsize": keep, "typed": False}
        memo.cache_clear = lambda: (held.clear(), counts.clear(), counts.extend((0, 0)))
        return memo
    return decorate
