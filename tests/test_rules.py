import itertools
import json
import random
from fractions import Fraction

import pytest

from mmsvote.model import PreferenceMatrix, canonicalize, parse_matrix, type_census, utility
from mmsvote.rules import (
    AlwaysMinorityRule,
    ConstantRule,
    DeferredAmbiguity4,
    GracefulMap,
    GracefulMapError,
    GracefulRule,
    MajorityRule,
    MaxNashWelfareRule,
    MuffledMajority3,
    RULE_NAMES,
    RuleTranscript,
    build_rule,
    deferred_ambiguity,
    mnw_outcome,
    nash_welfare,
    run_rule,
    standard_pattern,
)
from mmsvote.shares import SearchBudgetExceeded, mms_adapt_all
from oracles import (
    naive_mnw,
    random_matrix,
    reference_deferred_ambiguity,
    standard_pattern_utility,
)

EXAMPLE_3x9 = PreferenceMatrix.from_rows(
    [
        (1, 1, 0, 1, 1, 0, 1, 1, 0),
        (1, 1, 1, 1, 1, 1, 1, 1, 1),
        (0, 0, 1, 0, 0, 1, 0, 0, 1),
    ]
)

EXAMPLE_3x15 = PreferenceMatrix.from_columns([(0, 1, 1)] * 9 + [(1, 0, 1)] * 3 + [(1, 1, 0)] * 3)


def bits(text):
    return tuple(int(b) for b in text)


def test_majority_basics():
    M = PreferenceMatrix.from_columns([(0, 1, 1), (1, 0, 0), (1, 1, 1), (0, 0, 0)])
    t = run_rule("majority", M)
    assert t.outcome == (1, 0, 1, 0)
    assert t.utilities == (2, 4, 4)


def test_majority_tie_goes_to_zero():
    M = PreferenceMatrix.from_columns([(0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 1, 1)])
    assert run_rule("majority", M).outcome == (0, 0, 1)


def test_constant_rules():
    M = PreferenceMatrix.from_columns([(0, 1), (1, 1), (0, 0)])
    assert run_rule("always-0", M).outcome == (0, 0, 0)
    assert run_rule("always-1", M).outcome == (1, 1, 1)
    with pytest.raises(ValueError):
        ConstantRule(2)


def test_always_minority():
    M = PreferenceMatrix.from_columns(
        [(0, 1, 1), (1, 0, 0), (1, 1, 1), (0, 0, 0), (1, 0, 1)]
    )
    t = run_rule("always-minority", M)
    # splits go to the lone dissenter, consensus is honored
    assert t.outcome == (0, 1, 1, 0, 0)


def test_always_minority_tie_goes_to_zero():
    M = PreferenceMatrix.from_columns([(0, 1), (1, 0), (1, 1)])
    assert run_rule("always-minority", M).outcome == (0, 0, 1)


def test_ptrr3_example_run():
    t = run_rule("ptrr3", EXAMPLE_3x9)
    assert t.outcome == bits("111011100")
    assert t.utilities == (5, 6, 4)
    assert t.utilities == mms_adapt_all(EXAMPLE_3x9)


def test_ptrr3_counter_cycles():
    # seven copies of one split type: MAJ MAJ MIN MAJ MAJ MIN MAJ
    M = PreferenceMatrix.from_columns([(0, 1, 1)] * 7)
    t = run_rule("ptrr3", M)
    assert t.outcome == bits("1101101")
    assert t.utilities == (2, 5, 5)


def test_ptrr3_orientation_relative():
    # same type arriving in both orientations: tokens follow the sides,
    # not the literal bits
    M = PreferenceMatrix.from_columns([(0, 1, 1), (1, 0, 0), (0, 1, 1)])
    t = run_rule("ptrr3", M)
    assert t.outcome == (1, 0, 0)
    assert t.utilities == (1, 2, 2)


def test_ptrr3_rejects_wrong_n():
    with pytest.raises(ValueError, match="exactly 3 agents"):
        run_rule("ptrr3", PreferenceMatrix.from_columns([(0, 1, 1, 1)]))


def test_ptrr_generalized_any_n():
    M5 = PreferenceMatrix.from_columns([(0, 1, 1, 1, 1)] * 5)
    t = run_rule("ptrr-generalized", M5)
    assert t.outcome == (1, 1, 1, 1, 0)
    M3 = EXAMPLE_3x9
    assert run_rule("ptrr-generalized", M3).outcome == run_rule("ptrr3", M3).outcome


def test_standard_pattern_shapes():
    p4 = standard_pattern(4)
    split, _ = canonicalize((0, 1, 1, 1))
    tie, _ = canonicalize((0, 0, 1, 1))
    assert p4(split) == ("MAJ", "MAJ", "MAJ", "MIN")
    assert p4(tie) == ("CANON", "ANTI", "CANON", "ANTI")
    with pytest.raises(ValueError):
        standard_pattern(1)


def test_tie_tokens_alternate_with_agent_one():
    # two copies of a tie column: first goes to agent 1's side, second to
    # the other side, regardless of observed orientation
    M = PreferenceMatrix.from_columns([(1, 1, 0, 0), (1, 1, 0, 0)])
    t = run_rule("ptrr-generalized", M)
    assert t.outcome == (1, 0)
    M_flipped = PreferenceMatrix.from_columns([(1, 1, 0, 0), (0, 0, 1, 1)])
    assert run_rule("ptrr-generalized", M_flipped).outcome == (1, 1)


def test_graceful_utilities_order_insensitive():
    rng = random.Random(7)
    rule = build_rule("ptrr-generalized")
    for _ in range(40):
        M = random_matrix(rng, rng.randint(2, 4), rng.randint(0, 8))
        base = rule.run(M).utilities
        order = list(range(M.m))
        rng.shuffle(order)
        cols = []
        for j in order:
            col = M.column(j)
            if rng.random() < 0.5:
                col = tuple(1 - b for b in col)
            cols.append(col)
        shuffled = PreferenceMatrix.from_columns(cols, n_agents=M.n)
        assert rule.run(shuffled).utilities == base


def test_online_rules_are_prefix_local():
    rng = random.Random(11)
    names = ["majority", "always-0", "always-minority", "ptrr-generalized"]
    for _ in range(20):
        M = random_matrix(rng, rng.randint(2, 5), rng.randint(1, 9))
        for name in names:
            rule = build_rule(name)
            full = rule.run(M).outcome
            k = rng.randint(0, M.m)
            assert rule.run(M.prefix(k)).outcome == full[:k]


def test_graceful_map_parse_and_run(tmp_path):
    text = "# lone dissenter loses every time\n011 MAJ,MAJ,MAJ\n001 MIN,MAJ,MAJ\n"
    gmap = GracefulMap.parse(text)
    assert gmap.n == 3
    rule = GracefulRule.from_map(gmap)
    M = PreferenceMatrix.from_columns([(0, 1, 1), (1, 1, 0), (1, 1, 0)])
    assert rule.run(M).outcome == (1, 0, 1)

    path = tmp_path / "map.txt"
    path.write_text(text)
    via_registry = build_rule(f"graceful:{path}")
    assert via_registry.run(M).outcome == (1, 0, 1)


def test_graceful_map_rejections():
    with pytest.raises(GracefulMapError, match="length"):
        GracefulMap.parse("011 MAJ,MAJ\n")
    with pytest.raises(GracefulMapError, match="not valid"):
        GracefulMap.parse("011 MAJ,MAJ,CANON\n")
    with pytest.raises(GracefulMapError, match="canonical"):
        GracefulMap.parse("110 MAJ,MAJ,MIN\n")
    with pytest.raises(GracefulMapError, match="consensus"):
        GracefulMap.parse("000 MAJ,MAJ,MAJ\n")
    with pytest.raises(GracefulMapError, match="duplicate"):
        GracefulMap.parse("011 MAJ,MAJ,MIN\n011 MIN,MAJ,MAJ\n")
    with pytest.raises(GracefulMapError, match="empty"):
        GracefulMap.parse("# nothing\n")
    tie_ok = GracefulMap.parse("0011 CANON,ANTI,CANON,ANTI\n")
    assert tie_ok.n == 4
    with pytest.raises(GracefulMapError, match="no entry"):
        rule = GracefulRule.from_map(tie_ok)
        rule.run(PreferenceMatrix.from_columns([(0, 1, 1, 1)]))


def stepper_outcome(rule, matrix):
    step = rule.stepper(matrix.n)
    return tuple(step.decide(column) for column in matrix.columns())


def test_graceful_run_matches_stepper():
    # run reads the type census; the stepper canonicalizes column by column
    rng = random.Random(2718)
    gmap = GracefulMap.parse("011 MIN,MAJ,MAJ\n001 MAJ,MIN,MIN\n010 MIN,MIN,MAJ\n")
    rules = [build_rule("ptrr3"), GracefulRule.from_map(gmap), build_rule("ptrr-generalized")]
    for _ in range(300):
        rule = rng.choice(rules)
        n = rule.required_agents or rng.randint(2, 6)
        M = random_matrix(rng, n, rng.randint(0, 14))
        assert rule.run(M).outcome == stepper_outcome(rule, M)


def test_graceful_run_fails_on_first_unlisted_type():
    rule = GracefulRule.from_map(GracefulMap.parse("011 MAJ,MAJ,MIN\n"))
    M = PreferenceMatrix.from_columns([(0, 1, 1), (1, 1, 1), (1, 0, 1), (0, 0, 1), (0, 1, 0)])
    for decide in (rule.run, lambda matrix: stepper_outcome(rule, matrix)):
        with pytest.raises(GracefulMapError, match="no entry for type 010$"):
            decide(M)


def test_muffled_small_example():
    M = PreferenceMatrix.from_columns([(0, 1, 1)] * 4)
    t = run_rule("muffled3", M)
    assert t.outcome == (1, 1, 0, 0)
    assert t.utilities == (2, 2, 2)
    assert t.details["final_scores"] == (2, 2, 2)


def test_muffled_all_opposed_twelve():
    M = PreferenceMatrix.from_columns([(0, 1, 1)] * 12)
    t = run_rule("muffled3", M)
    assert t.utilities == (6, 6, 6)


def test_muffled_tie_equal_scores_copies_lowest_index():
    # third column: agent 1 muffled, agents 2 and 3 tied on score 1 and
    # split on the issue, so agent 2 (lower index) is copied
    M = PreferenceMatrix.from_columns([(1, 1, 0), (1, 0, 1), (1, 0, 1), (0, 0, 1)])
    t = run_rule("muffled3", M)
    assert t.outcome == (1, 1, 0, 1)


def test_muffled_tie_unequal_scores_copies_poorer_agent():
    # fourth column: agent 1 muffled at the threshold of 3, agents 2 and
    # 3 split with scores (2, 1), so agent 3's side wins despite agent
    # 2's lower index
    M = PreferenceMatrix.from_columns(
        [(1, 1, 0), (1, 0, 1), (1, 1, 0), (0, 1, 0), (1, 1, 1), (0, 0, 0)]
    )
    t = run_rule("muffled3", M)
    assert t.outcome == (1, 1, 1, 0, 1, 0)


def test_muffled_needs_horizon():
    rule = MuffledMajority3()
    with pytest.raises(ValueError, match="upfront"):
        rule.stepper(3)
    assert rule.horizon_aware


def test_eta_examples():
    # none of these has an odd tie type, so the thresholds are those of
    # the full instance
    M = PreferenceMatrix.from_columns([(0, 1, 1, 1)] * 4)
    assert deferred_ambiguity(M)[3] == (Fraction(1), Fraction(3), Fraction(3), Fraction(3))
    M = PreferenceMatrix.from_columns([(1, 0, 1, 1)] * 3)
    assert deferred_ambiguity(M)[3] == (
        Fraction(9, 4),
        Fraction(3, 4),
        Fraction(9, 4),
        Fraction(9, 4),
    )
    M = PreferenceMatrix.from_columns([(1, 1, 1, 1), (0, 0, 0, 0), (0, 0, 1, 1), (1, 1, 0, 0)])
    assert deferred_ambiguity(M)[3] == (Fraction(3),) * 4


def test_standard_pattern_utility_matches_run():
    rng = random.Random(23)
    for _ in range(60):
        M = random_matrix(rng, 4, rng.randint(0, 7))
        # pad every odd tie type with one more copy so the closed form applies
        counts = {}
        for j in range(M.m):
            ctype, _ = canonicalize(M.column(j))
            counts[ctype] = counts.get(ctype, 0) + 1
        for ctype, c in counts.items():
            if ctype.kind == "tie" and c % 2 == 1:
                M = M.append_column(ctype.bits)
        t = run_rule("ptrr-generalized", M)
        for i in range(4):
            assert standard_pattern_utility(M, i) == t.utilities[i]


def test_standard_pattern_utility_rejects_odd_ties():
    M = PreferenceMatrix.from_columns([(0, 0, 1, 1)])
    with pytest.raises(ValueError, match="even"):
        standard_pattern_utility(M, 0)


def test_deferred_ambiguous_triple():
    M = PreferenceMatrix.from_columns([(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0)])
    outcome, removed, i_star, eta = deferred_ambiguity(M)
    assert removed == (0, 1, 2)
    assert i_star == 0
    assert outcome == (0, 0, 0)
    assert eta == (Fraction(0),) * 4
    t = run_rule("deferred4", M)
    assert t.utilities == (3, 1, 1, 1)
    assert t.details["deferred_columns"] == (1, 2, 3)
    assert t.details["compensated_agent"] == 1


def test_deferred_removes_last_occurrence_of_each_orientation_class():
    # tie type {1,2} vs {3,4} appears at columns 1, 3, and (negated) 5;
    # only the last goes to the deferred pile
    M = PreferenceMatrix.from_columns(
        [(0, 0, 1, 1), (0, 1, 1, 1), (0, 0, 1, 1), (1, 0, 0, 0), (1, 1, 0, 0)]
    )
    _, removed, _, _ = deferred_ambiguity(M)
    assert removed == (4,)


def test_deferred_even_ties_defer_nothing():
    M = PreferenceMatrix.from_columns([(0, 0, 1, 1), (1, 1, 0, 0), (0, 1, 1, 1)])
    outcome, removed, i_star, _ = deferred_ambiguity(M)
    assert removed == ()
    assert outcome == run_rule("ptrr-generalized", M).outcome


def test_deferred_compensation_choice():
    rng = random.Random(31)
    for _ in range(200):
        M = random_matrix(rng, 4, rng.randint(0, 8))
        outcome, removed, i_star, eta = deferred_ambiguity(M)
        reduced = M.drop_columns(removed)
        inner = run_rule("ptrr-generalized", reduced)
        short = [i for i in range(4) if inner.utilities[i] < eta[i]]
        level = [i for i in range(4) if inner.utilities[i] == eta[i]]
        assert len(short) <= 1
        if short:
            assert i_star == short[0]
        elif (
            len(level) == 2
            and len(removed) == 2
            and all(M.rows[level[0]][j] != M.rows[level[1]][j] for j in removed)
        ):
            assert i_star not in level
        else:
            assert i_star == (level[0] if level else 0)
        # the compensated agent wins every deferred column outright
        u_full = tuple(utility(M, outcome, i) for i in range(4))
        assert u_full[i_star] == inner.utilities[i_star] + len(removed)
        # nobody who was at or below their threshold before the deferred
        # columns returned may end the full run under their adaptive share
        if removed:
            mms = mms_adapt_all(M)
            for i in short + level:
                assert u_full[i] >= mms[i]


def test_deferred_serves_agent_exactly_at_threshold():
    # agent 4 lands exactly on a whole-number threshold in the reduced
    # run and opposes agent 1 on both deferred columns, so defaulting to
    # agent 1 would leave agent 4 under its adaptive share
    M = parse_matrix("4 7\n1011101\n0001101\n1011110\n1101011\n")
    t = run_rule("deferred4", M)
    assert t.details["compensated_agent"] == 4
    assert t.utilities == (5, 5, 5, 5)
    assert mms_adapt_all(M) == (4, 4, 4, 4)


def test_deferred_threshold_pair_served_from_outside():
    # agents 1 and 3 both land exactly on their thresholds and disagree
    # on both deferred columns, so neither can cover the other; agent 2
    # sides with each of them exactly once and serves both
    M = parse_matrix("4 9\n001111111\n100011101\n110000100\n101100110\n")
    t = run_rule("deferred4", M)
    assert t.details["compensated_agent"] == 2
    assert t.utilities == (5, 7, 5, 5)
    assert mms_adapt_all(M) == (5, 5, 5, 5)


def test_mnw_matches_naive_oracle():
    rng = random.Random(41)
    for _ in range(40):
        M = random_matrix(rng, rng.randint(2, 4), rng.randint(0, 6))
        expected_outcome, expected_utils = naive_mnw(M)
        got = mnw_outcome(M)
        assert got == expected_outcome
        t = run_rule("mnw", M)
        assert t.outcome == got
        assert t.utilities == expected_utils


def test_mnw_example_is_majority():
    t = run_rule("mnw", EXAMPLE_3x15)
    assert t.outcome == run_rule("majority", EXAMPLE_3x15).outcome
    assert t.utilities == (6, 12, 12)
    assert t.details["nash_welfare"] == 864
    assert nash_welfare(EXAMPLE_3x15, t.outcome) == 864


def test_mnw_budget_guard(monkeypatch):
    monkeypatch.setenv("MMSVOTE_SEARCH_BUDGET", "3")
    M = PreferenceMatrix.from_columns([(0, 1, 1), (0, 0, 1), (0, 1, 0)])
    with pytest.raises(
        SearchBudgetExceeded,
        match="^the Nash welfare candidate space has 8 candidates, more than the node budget 3;",
    ) as info:
        mnw_outcome(M)
    assert (info.value.budget, info.value.nodes) == (3, 8)


def test_mnw_never_below_majority_welfare():
    rng = random.Random(43)
    for _ in range(60):
        M = random_matrix(rng, rng.randint(2, 4), rng.randint(1, 7))
        best = run_rule("mnw", M).outcome
        maj = run_rule("majority", M).outcome
        assert nash_welfare(M, best) >= nash_welfare(M, maj)


def test_transcript_serialization():
    t = run_rule("ptrr3", EXAMPLE_3x9)
    blob = json.loads(t.to_json())
    assert blob["rule"] == "ptrr3"
    assert blob["outcome"] == "111011100"
    assert blob["utilities"] == [5, 6, 4]
    assert blob["counters"] == {"001": 6, "011": 3}
    assert len(blob["decisions"]) == 9
    assert blob["decisions"][0] == {
        "column": "110",
        "type": "001",
        "flipped": True,
        "counter": 0,
        "bit": 1,
    }
    t4 = run_rule("deferred4", PreferenceMatrix.from_columns([(0, 0, 1, 1)]))
    blob4 = json.loads(t4.to_json())
    assert blob4["details"]["thresholds"] == ["0", "0", "0", "0"]


def test_transcripts_match_per_column_recount():
    rng = random.Random(8128)
    fixed_agents = {"ptrr3": 3, "muffled3": 3, "deferred4": 4}
    names = [name for name in RULE_NAMES if not name.startswith("graceful:")]
    assert len(names) == 9
    for name in names:
        for _ in range(12):
            n = fixed_agents.get(name, rng.randint(2, 5))
            M = random_matrix(rng, n, rng.randint(0, 8))
            t = run_rule(name, M)
            counters, decisions = {}, []
            for j, column in enumerate(M.columns()):
                ctype, flipped = canonicalize(column)
                k = counters.get(ctype, 0)
                counters[ctype] = k + 1
                decisions.append(
                    {
                        "column": "".join(map(str, column)),
                        "type": "".join(map(str, ctype.bits)),
                        "flipped": flipped,
                        "counter": k,
                        "bit": t.outcome[j],
                    }
                )
            utilities = tuple(utility(M, t.outcome, i) for i in range(n))
            assert t == RuleTranscript(name, M, t.outcome, utilities, t.details)
            assert (t.n, t.m) == (n, M.m)
            expected = {
                "rule": name,
                "n": n,
                "m": M.m,
                "outcome": "".join(map(str, t.outcome)),
                "utilities": list(utilities),
                "counters": {"".join(map(str, c.bits)): k for c, k in counters.items()},
                "decisions": decisions,
            }
            if t.details:
                expected["details"] = t.to_dict()["details"]
            # the JSON text pins key order, the counters' order and bools
            assert t.to_json() == json.dumps(expected)


def test_registry_names_and_flags():
    assert build_rule("majority").order_insensitive
    assert not build_rule("muffled3").order_insensitive
    assert build_rule("muffled3").horizon_aware
    assert not build_rule("deferred4").online
    assert not build_rule("mnw").online
    assert build_rule("ptrr3").required_agents == 3
    known = (
        "majority, ptrr3, ptrr-generalized, muffled3, deferred4, mnw, "
        "always-0, always-1, always-minority, graceful:<path>"
    )
    with pytest.raises(ValueError) as excinfo:
        build_rule("plurality")
    assert str(excinfo.value) == f"unknown rule 'plurality'; known: {known}"
    with pytest.raises(ValueError, match="token table path"):
        build_rule("graceful:")
    assert ", ".join(RULE_NAMES) == known
    assert [build_rule(name).name for name in RULE_NAMES[:-1]] == list(RULE_NAMES[:-1])


def test_rule_objects_accepted_by_run_rule():
    M = PreferenceMatrix.from_columns([(0, 1, 1)])
    assert run_rule(MajorityRule(), M).outcome == (1,)
    assert run_rule(AlwaysMinorityRule(), M).outcome == (0,)


def test_empty_matrix_runs():
    M = PreferenceMatrix.from_rows([(), (), (), ()])
    for name in ["majority", "ptrr-generalized", "deferred4", "mnw", "always-1"]:
        t = run_rule(name, M)
        assert t.outcome == ()
        assert t.utilities == (0, 0, 0, 0)


def test_deferred_inconsistency_is_importable():
    from mmsvote.rules import InternalInconsistencyError

    assert issubclass(InternalInconsistencyError, RuntimeError)


def test_deferred_ambiguity_matches_fraction_reference():
    # the integer-quarter thresholds and the census-driven inner outcome
    # against the Fraction thresholds and a full inner transcript
    rng = random.Random(4108)
    for _ in range(500):
        M = random_matrix(rng, 4, rng.randint(1, 8))
        outcome, removed, i_star, eta = deferred_ambiguity(M)
        assert (outcome, removed, i_star, eta) == reference_deferred_ambiguity(M)
        assert all(isinstance(t, Fraction) for t in eta)


TIE_COLUMNS = [c for c in itertools.product((0, 1), repeat=4) if sum(c) == 2]


def test_deferred_ambiguity_census_matches_drop_columns_path():
    # the reduced instance read off the full census against a second
    # matrix built with drop_columns: every 4 x m matrix up to m = 3, then
    # seeded ones up to m = 12 with most columns drawn from the tie types
    cases = [
        PreferenceMatrix.from_columns(cols, n_agents=4)
        for m in range(4)
        for cols in itertools.product(itertools.product((0, 1), repeat=4), repeat=m)
    ]
    rng = random.Random(5150)
    for m in range(4, 13):
        for _ in range(120):
            cases.append(PreferenceMatrix.from_columns([
                rng.choice(TIE_COLUMNS) if rng.random() < 0.6
                else tuple(rng.randint(0, 1) for _ in range(4))
                for _ in range(m)
            ]))
    lone_ties = pair_served = 0
    for M in cases:
        got = deferred_ambiguity(M)
        assert got == reference_deferred_ambiguity(M)
        outcome, removed, i_star, eta = got
        census = type_census(M)
        lone_ties += any(t.kind == "tie" and e.count == 1 for t, e in census.items())
        kept = [j for j in range(M.m) if j not in removed]
        inner = [sum(M.rows[i][j] == outcome[j] for j in kept) for i in range(4)]
        at_threshold = [i for i in range(4) if inner[i] == eta[i]]
        if all(u >= t for u, t in zip(inner, eta)) and len(at_threshold) == 2:
            pair_served += i_star not in at_threshold
    # tie types that vanish from the reduced census, and the branch that
    # serves a disagreeing threshold pair from outside, both occur
    assert lone_ties > 500 and pair_served > 20


OUTCOME_MATRIX = {
    2: PreferenceMatrix.from_rows([(1, 0), (0, 0), (1, 1)]),
    3: PreferenceMatrix.from_rows([(1, 0, 1), (0, 0, 1), (1, 1, 0)]),
}


@pytest.mark.parametrize("m, outcome", [(3, (0, 2, 1)), (2, (0, 1.0)), (2, (1,)), (3, (1, 0))])
def test_outcome_consumers_reject_bad_outcomes(m, outcome):
    M = OUTCOME_MATRIX[m]
    with pytest.raises(ValueError):
        RuleTranscript.from_outcome("x", M, outcome)
    with pytest.raises(ValueError):
        nash_welfare(M, outcome)


def test_outcome_consumers_read_bools_as_bits():
    M = OUTCOME_MATRIX[2]
    t = RuleTranscript.from_outcome("x", M, (True, 0))
    assert t.to_json() == RuleTranscript.from_outcome("x", M, (1, 0)).to_json()
    assert t.outcome == (1, 0) and t.to_dict()["outcome"] == "10"
    assert t.utilities == tuple(utility(M, (1, 0), i) for i in range(3)) == (2, 1, 1)
    assert nash_welfare(M, (True, 0)) == nash_welfare(M, (1, 0)) == 2


def test_sweep_ops_count_each_fact_once(monkeypatch):
    # a parse -> run -> audit op makes one full pass over the rows for the
    # utilities, and every (tokens, type) cycle is resolved once
    from mmsvote import model, rules
    from mmsvote.verify import audit

    calls = 0
    counted = model._agreements

    def agreements(*args):
        nonlocal calls
        calls += 1
        return counted(*args)

    for module in (model, rules):
        monkeypatch.setattr(module, "_agreements", agreements)
    rules._cycle.cache_clear()
    rng = random.Random(4242)
    pairs = set()
    for name, n in (("ptrr3", 3), ("deferred4", 4)) * 60:
        matrix = random_matrix(rng, n, rng.randint(1, 10))
        before = calls
        parsed = parse_matrix(matrix.to_text())
        outcome = run_rule(name, parsed).outcome
        report = audit(parsed, outcome)
        assert calls == before + 1
        assert report.utilities == tuple(utility(matrix, outcome, i) for i in range(n))
        pattern = standard_pattern(n)
        pairs.update(
            (pattern(ctype), ctype) for ctype in type_census(matrix) if ctype.kind != "consensus"
        )
    assert 0 < rules._cycle.cache_info().misses <= len(pairs)


def test_graceful_map_gap_fails_alike_with_warm_cycles():
    # the token table is asked for every type on every run, so a
    # memoized cycle never hides a type the table lacks
    from mmsvote import rules

    gmap = GracefulMap.parse("011 MAJ,MAJ,MIN\n")
    matrix = PreferenceMatrix.from_columns([(0, 1, 1), (1, 0, 0), (0, 0, 1)])
    rules._cycle.cache_clear()
    with pytest.raises(GracefulMapError) as cold:
        GracefulRule.from_map(gmap).run(matrix)
    run_rule("ptrr3", matrix)
    assert rules._cycle.cache_info().currsize >= 2
    for _ in range(2):
        with pytest.raises(GracefulMapError) as warm:
            GracefulRule.from_map(gmap).run(matrix)
        assert str(warm.value) == str(cold.value) == "token table has no entry for type 001"
        with pytest.raises(GracefulMapError) as stepped:
            stepper_outcome(GracefulRule.from_map(gmap), matrix)
        assert str(stepped.value) == str(cold.value)
