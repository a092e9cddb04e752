"""Tests for the window/session join probe functions."""

from hypothesis import example, given, strategies as st

from repro.core.join import (
    emitting_sessions,
    fire_sessions,
    probe_sessions,
    probe_window,
)
from repro.core.pipeline import LEFT, RIGHT
from repro.core.windows import SessionWindows


class TestProbeWindow:
    def test_cartesian_per_key(self):
        payload = [(LEFT, ("l1",)), (RIGHT, ("r1",)), (LEFT, ("l2",)), (RIGHT, ("r2",))]
        pairs = probe_window(payload)
        assert len(pairs) == 4
        assert (("l1",), ("r1",)) in pairs

    def test_no_match_sides(self):
        assert probe_window([(LEFT, ("l",))]) == []
        assert probe_window([(RIGHT, ("r",))]) == []
        assert probe_window([]) == []

    def test_output_sorted(self):
        payload = [(LEFT, ("b",)), (LEFT, ("a",)), (RIGHT, ("r",))]
        pairs = probe_window(payload)
        assert pairs == sorted(pairs)

    @given(st.integers(0, 5), st.integers(0, 5))
    def test_property_output_size(self, lefts, rights):
        payload = [(LEFT, (f"l{i}",)) for i in range(lefts)]
        payload += [(RIGHT, (f"r{i}",)) for i in range(rights)]
        assert len(probe_window(payload)) == lefts * rights


class TestProbeSessions:
    def test_closed_session_emitted(self):
        window = SessionWindows(10)
        payload = [(0.0, LEFT, ("l",)), (5.0, RIGHT, ("r",))]
        emitted, remaining = probe_sessions(window, payload, frontier=15.0)
        assert emitted == [(("l",), ("r",))]
        assert remaining == []

    def test_open_session_retained(self):
        window = SessionWindows(10)
        payload = [(0.0, LEFT, ("l",)), (5.0, RIGHT, ("r",))]
        emitted, remaining = probe_sessions(window, payload, frontier=14.9)
        assert emitted == []
        assert len(remaining) == 2

    def test_mixed_sessions(self):
        window = SessionWindows(10)
        payload = [
            (0.0, LEFT, ("l1",)),
            (5.0, RIGHT, ("r1",)),
            (100.0, LEFT, ("l2",)),
            (105.0, RIGHT, ("r2",)),
        ]
        emitted, remaining = probe_sessions(window, payload, frontier=50.0)
        assert emitted == [(("l1",), ("r1",))]
        assert sorted(entry[0] for entry in remaining) == [100.0, 105.0]

    def test_empty_payload(self):
        assert probe_sessions(SessionWindows(10), [], 100.0) == ([], [])

    def test_infinite_frontier_drains_everything(self):
        window = SessionWindows(10)
        payload = [(float(t), LEFT if t % 2 else RIGHT, (t,)) for t in range(5)]
        emitted, remaining = probe_sessions(window, payload, float("inf"))
        assert remaining == []
        assert len(emitted) == 2 * 3  # 2 lefts x 3 rights in one session


INF = float("inf")

# Half-millisecond timestamps on a small range: equal timestamps across
# sides, steps of exactly one gap and session ends landing exactly on
# the frontier all come up often.
_entries = st.lists(
    st.tuples(
        st.integers(0, 60).map(lambda t: t / 2),
        st.sampled_from([LEFT, RIGHT]),
        st.integers(0, 3).map(lambda v: (v,)),
    ),
    max_size=8,
)
_frontiers = st.one_of(
    st.integers(0, 80).map(lambda t: t / 2), st.just(INF), st.just(-INF)
)


def _emitting_keys(window, items, frontier):
    return [key for key, _payload in emitting_sessions(window, items, frontier)]


def _probed_keys(window, items, frontier):
    return [key for key, payload in items if probe_sessions(window, payload, frontier)[0]]


class TestEmittingSessions:
    @given(
        st.integers(1, 6).map(SessionWindows),
        st.lists(_entries, max_size=6),
        _frontiers,
    )
    @example(SessionWindows(5), [[(0.0, LEFT, (1,)), (0.0, RIGHT, (2,))]], 5.0)
    @example(SessionWindows(5), [[(0.0, LEFT, (1,)), (5.0, RIGHT, (2,))]], 10.0)
    @example(SessionWindows(5), [[(0.0, LEFT, (1,)), (5.5, RIGHT, (2,))]], INF)
    @example(SessionWindows(5), [[], [(0.0, LEFT, (1,))], []], INF)
    def test_selects_exactly_the_keys_probe_sessions_emits(self, window, payloads, frontier):
        items = [(f"k{i}", payload) for i, payload in enumerate(payloads)]
        assert _emitting_keys(window, items, frontier) == _probed_keys(
            window, items, frontier
        )

    def test_session_end_equal_to_frontier_is_closed(self):
        items = [("k", [(0.0, LEFT, ("l",)), (5.0, RIGHT, ("r",))])]
        assert _emitting_keys(SessionWindows(10), items, 15.0) == ["k"]
        assert _emitting_keys(SessionWindows(10), items, 14.5) == []

    def test_gap_of_exactly_gap_ms_stays_one_session(self):
        window = SessionWindows(10)
        items = [("k", [(0.0, LEFT, ("l",)), (10.0, RIGHT, ("r",))])]
        assert _emitting_keys(window, items, 20.0) == ["k"]
        split = [("k", [(0.0, LEFT, ("l",)), (10.5, RIGHT, ("r",))])]
        assert _emitting_keys(window, split, INF) == []

    def test_closed_one_sided_sessions_do_not_emit(self):
        items = [
            ("lefts", [(0.0, LEFT, ("a",)), (1.0, LEFT, ("b",))]),
            ("rights", [(0.0, RIGHT, ("c",))]),
        ]
        assert _emitting_keys(SessionWindows(5), items, INF) == []

    def test_empty_payloads(self):
        assert emitting_sessions(SessionWindows(5), [], INF) == []
        assert emitting_sessions(SessionWindows(5), [("k", [])], INF) == []

    def test_keeps_items_order_and_objects(self):
        both = [(0.0, LEFT, ("l",)), (0.0, RIGHT, ("r",))]
        items = [("b", list(both)), ("quiet", [(0.0, LEFT, ("x",))]), ("a", list(both))]
        selected = emitting_sessions(SessionWindows(5), items, INF)
        assert selected == [items[0], items[2]]
        assert selected[0][1] is items[0][1]


class TestFireSessions:
    def test_only_emitting_keys_are_replaced_or_removed(self):
        window = SessionWindows(10)
        quiet = [(30.0, LEFT, ("q2",)), (0.0, LEFT, ("q1",))]
        state = {
            "done": [(0.0, LEFT, ("l",)), (5.0, RIGHT, ("r",))],
            "quiet": quiet,
            "split": [(100.0, RIGHT, ("r2",)), (0.0, LEFT, ("l1",)), (1.0, RIGHT, ("r1",))],
        }
        joined = fire_sessions(
            window, state.items(), 50.0, state.__setitem__, state.__delitem__
        )
        assert joined == [
            ("done", ("l",), ("r",)),
            ("split", ("l1",), ("r1",)),
        ]
        assert list(state) == ["quiet", "split"]
        assert state["quiet"] is quiet
        assert quiet == [(30.0, LEFT, ("q2",)), (0.0, LEFT, ("q1",))]
        assert state["split"] == [(100.0, RIGHT, ("r2",))]
