"""One work budget for every stage of a job, counted in table lookups.

Each stage estimates its work before it starts, and ``check_budget``
refuses the stage (BudgetExceeded, exit 8) when that estimate is over the
budget.  The unit is one cell of the orbit-weighing loop, about 0.15 us in
CPython 3.11; a stage whose cells cost more time or memory charges a
measured multiple of it.  The estimates and where they are checked:

* ring set-up (``rings.ring_from_spec``, from the spec, before the ring
  is built): |R|^2 cells for each of the add and mul tables and for the
  sub table, which only ``code graph`` builds, and up to |R|^2 for the
  reads that the ring's structure and weight table make of them (the unit
  orbits and their modules read orbits * |R| cells), two lookups a cell;
* trace enumeration (``traces.enumerate_trace_maps``): 16 |R^x| * |R|,
  16 for each value of the |R^x| tables of |R| values, about 50 bytes each
  in process with a trace list report, before the named trace is built;
* the kernel and the orbit labelling (``codes.check_code_budget``, from
  ``codes.build_code`` and, before the trace is built, from
  ``codes.code_from_specs``): 16 |R|^2;
* orbit weighing (``codes.orbit_weights``): the orbit representatives times
  |R|, once labelling has counted them;
* a graph (``graphs.two_weight_graph``): |C| * (log2 |C| + 32) for listing,
  sorting and labelling the points, |R|^2 for the membership table and the
  orbit representatives times |D| for the common-neighbour counts.

The budget is the ``budget`` argument when one is given (``--budget``, or
``budget=`` in a config file), else the HOMRING_BUDGET environment variable
(read per call), else DEFAULT_BUDGET.
"""

from __future__ import annotations

import os

from .errors import BudgetExceeded, InvalidParameter

# admits the 2^24 weighing lookups of a map without symmetry on GR(2, 8)
# (2.4 s) and refuses the 2^27 of GR(2, 9) (33 s)
DEFAULT_BUDGET = 2 ** 25


def _limit(budget: int | None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get("HOMRING_BUDGET", str(DEFAULT_BUDGET))
    try:
        budget = int(env)
    except ValueError:
        raise InvalidParameter(
            f"HOMRING_BUDGET must be an integer, got {env!r}") from None
    if budget <= 0:
        raise InvalidParameter("HOMRING_BUDGET must be positive")
    return budget


def _refuse(stage: str, about: str, limit: int):
    raise BudgetExceeded(f"{stage} needs {about} table lookups, over the budget "
                         f"of {limit}; raise it with --budget or HOMRING_BUDGET")


def check_budget(stage: str, estimate: int, budget: int | None = None) -> None:
    """Refuse ``stage`` when its estimate is over the budget."""
    limit = _limit(budget)
    if estimate > limit:
        # str() refuses an int of over 4300 digits (about 14280 bits), so a
        # longer estimate is named by its power of two
        bits = estimate.bit_length()
        _refuse(stage, f"about {estimate if bits <= 14000 else f'2^{bits - 1}'}",
                limit)
