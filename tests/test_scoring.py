import math

import pytest
from hypothesis import given, strategies as st

from mapfuse.path_search import SubGraph, carried_candidate, k_shortest_paths
from mapfuse.scoring import (FusionWeights, ScoreVector, bearing_weight,
                             final_score, habit_scores, kinematic_score,
                             mean_link_occupancy, normalize_scores, select_path,
                             speed_weight, traffic_scores)

# frozen: math.exp(-0.1) evaluated by hand oracle
EXP_MINUS_POINT_ONE = 0.9048374180359595


class TestSpeedWeight:
    def test_exact_speed_match_is_one(self):
        assert speed_weight(10.0, 10.0, 600.0, 60.0, 0.1) == pytest.approx(1.0, abs=1e-9)

    def test_tabulated_case(self):
        # |(8+12)/2 - 540/60| = 1 at decay 0.1
        got = speed_weight(8.0, 12.0, 540.0, 60.0, 0.1)
        assert got == pytest.approx(EXP_MINUS_POINT_ONE, abs=1e-9)

    def test_huge_gap_vanishes(self):
        got = speed_weight(100.0, 100.0, 0.0, 1.0, 0.1)
        assert got == pytest.approx(4.5399929762484854e-05, abs=1e-9)

    @given(st.floats(0, 40), st.floats(0, 40))
    def test_symmetric_in_probe_speeds(self, va, vb):
        a = speed_weight(va, vb, 500.0, 60.0, 0.1)
        b = speed_weight(vb, va, 500.0, 60.0, 0.1)
        assert a == pytest.approx(b, abs=1e-12)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            speed_weight(1.0, 1.0, 10.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            speed_weight(1.0, 1.0, 10.0, 10.0, 0.0)


class TestBearingWeight:
    def test_aligned_is_one(self):
        assert bearing_weight(42.0, 42.0) == 1.0

    def test_at_and_past_ninety_is_zero(self):
        assert bearing_weight(0.0, 90.0) == pytest.approx(0.0, abs=1e-12)
        assert bearing_weight(0.0, 135.0) == 0.0
        assert bearing_weight(0.0, 180.0) == 0.0

    def test_sixty_degrees_is_half(self):
        assert bearing_weight(0.0, 60.0) == pytest.approx(0.5, abs=1e-9)


class TestKinematicScore:
    def test_product_times_hundred(self, chain_network):
        sub = SubGraph.whole(chain_network)
        paths = k_shortest_paths(sub, [carried_candidate(chain_network, (0, 1), 20.0)],
                                 [carried_candidate(chain_network, (2, 4), 50.0)], 1)
        path = paths[0]  # length 180 + 200 + 200 = 580... recompute below
        dt = 60.0
        v = path.length / dt
        # bearing aligned: links head east, probe heads east
        got = kinematic_score(path, v, v, 0.0, dt, 0.1)
        assert got == pytest.approx(100.0, abs=1e-9)
        # bearing at 60 degrees halves it
        got = kinematic_score(path, v, v, 60.0, dt, 0.1)
        assert got == pytest.approx(50.0, abs=1e-9)
        # and a unit speed gap applies the exponential
        got = kinematic_score(path, v + 1.0, v + 1.0, 0.0, dt, 0.1)
        assert got == pytest.approx(100.0 * EXP_MINUS_POINT_ONE, abs=1e-9)

    def test_bearing_zero_annihilates(self, chain_network):
        sub = SubGraph.whole(chain_network)
        paths = k_shortest_paths(sub, [carried_candidate(chain_network, (0, 1), 0.0)],
                                 [carried_candidate(chain_network, (0, 4), 10.0)], 1)
        got = kinematic_score(paths[0], 3.0, 3.0, 180.0, 30.0, 0.1)
        assert got == 0.0


class TestNormalization:
    def test_tabulated_habit_case(self):
        scores = habit_scores([1.0, 2.0, 5.0])
        assert scores[1] == pytest.approx(25.0, abs=1e-9)
        assert scores[0] == 0.0
        assert scores[2] == 100.0

    def test_flat_set_scores_zero(self):
        assert habit_scores([3.0, 3.0, 3.0]) == [0.0, 0.0, 0.0]
        assert traffic_scores([0.25, 0.25]) == [0.0, 0.0]

    @given(st.lists(st.floats(0, 100), min_size=2, max_size=8),
           st.floats(-5, 5), st.floats(0.1, 10))
    def test_translation_and_scale_invariance(self, values, shift, scale):
        if max(values) - min(values) < 1e-3:
            return  # flat sets collapse under float rounding; covered elsewhere
        base = normalize_scores(values)
        moved = normalize_scores([v * scale + shift for v in values])
        for a, b in zip(base, moved):
            assert a == pytest.approx(b, abs=1e-6)

    @given(st.lists(st.floats(0, 1000), min_size=2, max_size=8))
    def test_extremes_hit_when_not_flat(self, values):
        scores = normalize_scores(values)
        if max(values) > min(values):
            assert max(scores) == pytest.approx(100.0)
            assert min(scores) == 0.0


class TestTrafficMean:
    def test_two_link_mean(self, chain_network):
        sub = SubGraph.whole(chain_network)
        paths = k_shortest_paths(sub, [carried_candidate(chain_network, (0, 4), 10.0)],
                                 [carried_candidate(chain_network, (1, 1), 10.0)], 1)
        got = mean_link_occupancy(paths[0], {0: 0.02, 1: 0.04})
        assert got == pytest.approx(0.03, abs=1e-12)

    def test_single_link_is_identity(self, chain_network):
        sub = SubGraph.whole(chain_network)
        paths = k_shortest_paths(sub, [carried_candidate(chain_network, (1, 1), 0.0)],
                                 [carried_candidate(chain_network, (1, 3), 10.0)], 1)
        assert mean_link_occupancy(paths[0], {1: 0.07}) == pytest.approx(0.07)


class TestFusion:
    def test_equal_weights(self):
        got = final_score(ScoreVector(30.0, 60.0, 90.0), FusionWeights.equal())
        assert got == pytest.approx(60.0, abs=1e-9)

    def test_calibrated_weights(self):
        got = final_score(ScoreVector(50.0, 100.0, 0.0), FusionWeights(0.2, 0.5, 0.3))
        assert got == pytest.approx(60.0, abs=1e-9)

    def test_perfect_scores_stay_perfect(self):
        for w in (FusionWeights.equal(), FusionWeights(0.2, 0.5, 0.3),
                  FusionWeights(1.0, 0.0, 0.0)):
            assert final_score(ScoreVector(100.0, 100.0, 100.0), w) == pytest.approx(100.0)

    @given(st.floats(0, 100), st.floats(0, 100), st.floats(0, 100), st.floats(0, 100))
    def test_monotone_in_each_component(self, a, b, c, bump):
        w = FusionWeights(0.2, 0.5, 0.3)
        base = final_score(ScoreVector(a, b, c), w)
        assert final_score(ScoreVector(min(a + bump, 100.0), b, c), w) >= base - 1e-12
        assert final_score(ScoreVector(a, min(b + bump, 100.0), c), w) >= base - 1e-12
        assert final_score(ScoreVector(a, b, min(c + bump, 100.0)), w) >= base - 1e-12

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            FusionWeights(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            FusionWeights(-0.1, 0.6, 0.5)

    def test_restrict_redistributes_proportionally(self):
        w = FusionWeights(0.2, 0.5, 0.3)
        r = w.restrict(True, True, False)
        assert r.kinematic == pytest.approx(0.2 / 0.7)
        assert r.habit == pytest.approx(0.5 / 0.7)
        assert r.traffic == 0.0
        solo = w.restrict(True, False, False)
        assert solo.kinematic == 1.0
        with pytest.raises(ValueError):
            w.restrict(False, False, False)


class TestSelect:
    def _paths(self, chain_network):
        sub = SubGraph.whole(chain_network)
        long_path = k_shortest_paths(sub, [carried_candidate(chain_network, (0, 1), 0.0)],
                                     [carried_candidate(chain_network, (2, 2), 10.0)], 1)[0]
        short_path = k_shortest_paths(sub, [carried_candidate(chain_network, (0, 1), 0.0)],
                                      [carried_candidate(chain_network, (1, 2), 10.0)], 1)[0]
        return long_path, short_path

    def test_single_candidate(self, chain_network):
        long_path, _ = self._paths(chain_network)
        assert select_path([(long_path, 12.0)]) is long_path

    def test_tie_breaks_to_shorter(self, chain_network):
        long_path, short_path = self._paths(chain_network)
        assert select_path([(long_path, 60.0), (short_path, 60.0)]) is short_path

    def test_higher_score_wins_regardless_of_length(self, chain_network):
        long_path, short_path = self._paths(chain_network)
        assert select_path([(long_path, 61.0), (short_path, 60.0)]) is long_path

    def test_empty_set_signals_unmatched(self):
        with pytest.raises(ValueError, match="empty candidate set"):
            select_path([])

    def test_argmax_invariant_to_weight_rescaling(self, chain_network):
        long_path, short_path = self._paths(chain_network)
        sv = [ScoreVector(80.0, 10.0, 0.0), ScoreVector(40.0, 90.0, 10.0)]
        w = FusionWeights(0.2, 0.5, 0.3)
        finals = [final_score(v, w) for v in sv]
        # positive rescaling of all weights cannot change the argmax
        scaled = [2.5 * f for f in finals]
        pick1 = select_path(list(zip([long_path, short_path], finals)))
        pick2 = select_path(list(zip([long_path, short_path], scaled)))
        assert pick1 is pick2


def test_score_vector_validation():
    with pytest.raises(ValueError):
        ScoreVector(120.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ScoreVector(-1.0, 0.0, 0.0)
