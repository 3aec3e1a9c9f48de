from forestalg import samples
from forestalg.algebra import syntactic_algebra
from forestalg.decide import DecideBudgets, _direct_witness_search


def test_truncated_search_records_its_steps():
    # contains-a is locally testable, so no step can end the search early
    syn = syntactic_algebra(samples.contains_a())
    counters = {}
    budgets = DecideBudgets(search_bound=2, search_cap=5)
    assert _direct_witness_search(syn, 5, budgets, counters) is None
    assert counters == {"search_steps": 6, "search_truncated": True}
