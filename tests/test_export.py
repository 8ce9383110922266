from pathlib import Path

import pytest

from alwabp import (
    INFEASIBLE,
    Instance,
    Solution,
    branch_and_bound,
    check_solution_against_model,
    emit_model,
    parse_instance,
    validate_solution,
)
from alwabp.export import M2, M3, build_model
from conftest import random_instance
from lp_syntax import LpSyntaxError, tokenize_lp

GOLDEN = Path(__file__).parent / "golden"

FIG1_SOLUTION = Solution((2, 0, 1), (2, 0, 2, 0, 1, 1), 6)

TINY_GOLDEN = """\
\\ alwabp m2 2 2
Minimize
obj: C
Subject To
cyc_1: 3 x_1_1 + 2 x_1_2 - C <= 0
cyc_2: 4 x_2_2 - C <= 0
asg_1: x_1_1 = 1
asg_2: x_1_2 + x_2_2 = 1
lnk_1_2_1_2: d_1_2 - x_1_1 - x_2_2 >= -1
asym_1_2: d_1_2 + d_2_1 <= 1
Binaries
x_1_1 x_1_2 x_2_2 d_1_2 d_2_1
End
"""


def tiny_instance():
    return Instance([[3, INFEASIBLE], [2, 4]], {(0, 1)})


class TestEmission:
    def test_tiny_golden(self):
        assert emit_model(tiny_instance(), M2) == TINY_GOLDEN

    @pytest.mark.parametrize("variant", [M2, M3])
    def test_fig1_golden(self, fig1, variant):
        expected = (GOLDEN / f"fig1_{variant}.lp").read_text()
        assert emit_model(fig1, variant) == expected

    def test_fig1_row_counts(self, fig1):
        spec = build_model(fig1, M2)
        names = [c.name for c in spec.constraints]
        assert sum(1 for n in names if n.startswith("cyc_")) == 3
        assert sum(1 for n in names if n.startswith("asg_")) == 6

    def test_infeasible_pair_has_no_variable(self, fig1):
        for variant in (M2, M3):
            assert "x_2_1" not in emit_model(fig1, variant)

    def test_m3_strictly_larger(self, fig1):
        m2 = build_model(fig1, M2)
        m3 = build_model(fig1, M3)
        assert len(m3.constraints) > len(m2.constraints)
        assert "cont1_1_3_4_1" in {c.name for c in m3.constraints}

    def test_m2_block_embedded_in_m3(self, fig1):
        m2 = emit_model(fig1, M2)
        m3 = emit_model(fig1, M3)
        block2 = m2.split("Subject To\n", 1)[1].split("Binaries\n", 1)[0]
        block3 = m3.split("Subject To\n", 1)[1].split("Binaries\n", 1)[0]
        assert block3.startswith(block2)
        assert m2.split("Binaries\n", 1)[1] == m3.split("Binaries\n", 1)[1]

    def test_header_line(self, fig1):
        assert emit_model(fig1, M3).splitlines()[0] == "\\ alwabp m3 6 3"

    def test_every_referenced_variable_is_declared(self):
        for seed in range(10):
            inst = random_instance(seed)
            spec = build_model(inst, M3)
            declared = set(spec.binaries) | {"C"}
            for c in spec.constraints:
                for _, var in c.terms:
                    assert var in declared

    def test_unknown_variant_rejected(self, fig1):
        with pytest.raises(ValueError):
            emit_model(fig1, "m1")


class TestTokenizer:
    @pytest.mark.parametrize("variant", [M2, M3])
    def test_emitted_text_tokenizes(self, fig1, variant):
        sections = tokenize_lp(emit_model(fig1, variant))
        assert sections["objective"] == ["obj: C"]
        assert len(sections["constraints"]) > 0
        assert "x_1_1" in sections["binaries"]
        assert sections["comments"] == [f"alwabp {variant} 6 3"]

    def test_missing_end(self):
        with pytest.raises(LpSyntaxError, match="missing End"):
            tokenize_lp("Minimize\nobj: C\nSubject To\na: x >= 0\n")

    def test_content_after_end(self):
        with pytest.raises(LpSyntaxError, match="after End"):
            tokenize_lp(TINY_GOLDEN + "x\n")

    def test_malformed_row(self):
        with pytest.raises(LpSyntaxError, match="malformed constraint row"):
            tokenize_lp("Minimize\nobj: C\nSubject To\nnot a row\nEnd\n")

    def test_sections_out_of_order(self):
        with pytest.raises(LpSyntaxError):
            tokenize_lp("Subject To\na: x >= 0\nEnd\n")

    def test_bounds_section_accepted(self):
        text = TINY_GOLDEN.replace("Binaries\n", "Bounds\nC >= 0\nBinaries\n")
        assert tokenize_lp(text)["bounds"] == ["C >= 0"]


class TestChecker:
    def test_fig1_solution_valid_under_both_models(self, fig1):
        assert validate_solution(fig1, FIG1_SOLUTION) == []
        for variant in (M2, M3):
            assert check_solution_against_model(fig1, variant, FIG1_SOLUTION) == []

    def test_undersized_cycle_violates_exactly_cyc_2(self, fig1):
        tight = Solution(FIG1_SOLUTION.worker_order, FIG1_SOLUTION.assignment, 5)
        violations = check_solution_against_model(fig1, M2, tight)
        assert [v.name for v in violations] == ["cyc_2"]
        assert violations[0].lhs == 1  # worker 2 load 6 exceeds C=5 by one

    def test_precedence_violation_is_flagged(self, fig1):
        # t1 on the last station but t2 on the first breaks edge (1, 2)
        bad = Solution((0, 1, 2), (2, 0, 2, 0, 1, 1), 6)
        assert validate_solution(fig1, bad) != []
        violations = check_solution_against_model(fig1, M2, bad)
        assert any(v.name.startswith("lnk_") for v in violations)

    @pytest.mark.parametrize("variant", [M2, M3])
    @pytest.mark.parametrize("order", [(0, 0, 1), (0, 1, 3), (0, 1), (2, 0, 1, 0)])
    def test_worker_order_not_a_permutation(self, variant, order):
        # (0, 0, 1) on the demo used to raise KeyError: 2 for the missing worker
        inst = parse_instance((GOLDEN.parents[1] / "demos" / "fig_example.alwabp").read_text())
        bad = Solution(order, FIG1_SOLUTION.assignment, 6)
        assert validate_solution(inst, bad) == ["worker_order is not a permutation of the workers"]
        violations = check_solution_against_model(inst, variant, bad)
        assert [str(v) for v in violations] == ["worker_order is not a permutation of the workers"]

    def test_bnb_optima_pass_both_models(self):
        from alwabp import INFEASIBLE as INF
        from alwabp import brute_force_optimal

        for seed in range(10):
            inst = random_instance(seed)
            if brute_force_optimal(inst) == INF:
                continue
            result = branch_and_bound(inst)
            for variant in (M2, M3):
                assert check_solution_against_model(inst, variant, result.solution) == []
