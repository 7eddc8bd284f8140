"""Plans travel across process boundaries as cache keys, not payloads.

``PolyHankelPlan.__reduce__`` pickles to a :class:`~repro.core.planning.
PlanSpec`-shaped constructor call that re-resolves against the destination
process's plan cache — so a shipped plan deserializes to the *cached*
instance (warm caches in every worker) rather than a detached copy.
"""

import pickle

from repro.core.multichannel import get_plan
from repro.core.planning import PlanSpec
from repro.utils.shapes import ConvShape


def _shape(**overrides) -> ConvShape:
    params = dict(extents=(8, 8), kernel=(3, 3), n=2, c=3, f=4, padding=1)
    params.update(overrides)
    return ConvShape(**params)


class TestPlanSpec:
    def test_spec_round_trips_to_cached_plan(self):
        plan = get_plan(_shape())
        spec = plan.spec
        assert isinstance(spec, PlanSpec)
        assert spec.resolve() is plan

    def test_spec_is_hashable_and_comparable(self):
        a = get_plan(_shape()).spec
        b = get_plan(_shape()).spec
        assert a == b
        assert hash(a) == hash(b)

    def test_distinct_plans_distinct_specs(self):
        assert get_plan(_shape()).spec != get_plan(_shape(n=3)).spec


class TestPlanPickle:
    def test_unpickles_to_cached_instance(self):
        plan = get_plan(_shape())
        clone = pickle.loads(pickle.dumps(plan))
        assert clone is plan

    def test_strategy_and_backend_survive(self):
        plan = get_plan(_shape(), strategy="merge")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone is plan
        assert clone.strategy == "merge"

    def test_pickle_payload_is_small(self):
        # The whole point: a plan with cached spectra must not ship its
        # arrays.  The wire form is a spec — well under a kilobyte.
        plan = get_plan(_shape())
        assert len(pickle.dumps(plan)) < 1024
