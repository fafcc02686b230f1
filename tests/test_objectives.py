import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from shapedparts.errors import DimensionError, OracleError, ProblemError
from shapedparts.linalg import Matrix
from shapedparts.objectives import (
    ColumnPowerObjective,
    DiagonalPowerObjective,
    ExternalOracle,
    LinearObjective,
    MaxCutObjective,
    encode_wire_scalar,
    parse_wire_scalar,
)

ORACLE = [sys.executable, str(Path(__file__).parent / "data" / "square_oracle.py")]


class TestLinear:
    def test_inner_product(self):
        objective = LinearObjective(Matrix([[1, 0]]))
        assert objective.evaluate(Matrix([[6, 0]])) == 6

    def test_mixed_signs(self):
        objective = LinearObjective(Matrix([[1, -2], [0, 3]]))
        assert objective.evaluate(Matrix([["1/2", 1], [4, "1/3"]])) == F(1, 2) - 2 + 1

    def test_shape_check(self):
        objective = LinearObjective(Matrix([[1, 0]]))
        with pytest.raises(DimensionError):
            objective.evaluate(Matrix([[1], [2]]))
        with pytest.raises(DimensionError):
            objective.check_compatible(Matrix([[1, 2], [3, 4]]), 2)


class TestDiagonalPower:
    def test_splitting_evaluation(self):
        objective = DiagonalPowerObjective(2)
        matrix = Matrix([["3/5", "1/3"], [2, "7/10"]])
        assert objective.evaluate(matrix) == F(9, 25) + F(49, 100)

    def test_absolute_value_applies(self):
        assert DiagonalPowerObjective(3).evaluate(Matrix([[-2]])) == 8

    def test_needs_square(self):
        with pytest.raises(DimensionError):
            DiagonalPowerObjective(2).evaluate(Matrix([[1, 2, 3], [4, 5, 6]]))
        with pytest.raises(DimensionError):
            DiagonalPowerObjective(2).check_compatible(Matrix([[1, 2]]), 2)

    def test_q_validated(self):
        with pytest.raises(DimensionError):
            DiagonalPowerObjective(0)


class TestColumnPower:
    def test_sum_of_even_powers(self):
        objective = ColumnPowerObjective(2)
        assert objective.evaluate(Matrix([[1, -2], ["1/2", 0]])) == 1 + 4 + F(1, 4)

    def test_q_must_be_even_positive(self):
        with pytest.raises(DimensionError):
            ColumnPowerObjective(3)
        with pytest.raises(DimensionError):
            ColumnPowerObjective(0)


class TestMaxCut:
    def test_triangle_cut(self):
        objective = MaxCutObjective([(1, 2), (1, 3), (2, 3)])
        indicator = Matrix([[1, 0], [0, 1], [0, 1]])
        assert objective.evaluate(indicator) == 2

    def test_empty_side(self):
        objective = MaxCutObjective([(1, 2)])
        assert objective.evaluate(Matrix([[0, 1], [0, 1]])) == 0

    def test_validation(self):
        with pytest.raises(DimensionError):
            MaxCutObjective([(1, 1)])
        with pytest.raises(DimensionError):
            MaxCutObjective([(1, 2), (2, 1)])
        objective = MaxCutObjective([(1, 4)])
        with pytest.raises(DimensionError):
            objective.check_compatible(Matrix.identity(3), 2)
        with pytest.raises(DimensionError):
            MaxCutObjective([(1, 2)]).check_compatible(Matrix([[1, 0], [0, 2]]), 2)
        with pytest.raises(DimensionError):
            MaxCutObjective([(1, 2)]).check_compatible(Matrix.identity(2), 3)

    def test_non_indicator_rejected(self):
        with pytest.raises(DimensionError):
            MaxCutObjective([(1, 2)]).evaluate(Matrix([[2, 0], [0, 1]]))


class TestWireScalars:
    def test_encode(self):
        assert encode_wire_scalar(F(6)) == 6
        assert encode_wire_scalar(F(17, 20)) == "17/20"

    def test_encode_beyond_digit_limit(self):
        assert encode_wire_scalar(F(10 ** 4299)) == 10 ** 4299
        with pytest.raises(ProblemError, match="digits"):
            encode_wire_scalar(F(10 ** 4300))
        with pytest.raises(ProblemError, match="digits"):
            encode_wire_scalar(F(1, 10 ** 4300))

    def test_parse_forms(self):
        assert parse_wire_scalar("17") == 17
        assert parse_wire_scalar('"17/20"') == F(17, 20)
        assert parse_wire_scalar('"0.6"') == F(3, 5)
        assert parse_wire_scalar("17/20") == F(17, 20)
        assert parse_wire_scalar("0.25") == F(1, 4)

    def test_parse_garbage(self):
        with pytest.raises(ValueError):
            parse_wire_scalar("")
        with pytest.raises(ValueError):
            parse_wire_scalar("[1, 2]")
        with pytest.raises(ValueError):
            parse_wire_scalar("true")
        with pytest.raises(ValueError):
            parse_wire_scalar("zebra")


class TestExternalOracle:
    def test_round_trip(self):
        with ExternalOracle(ORACLE) as oracle:
            assert oracle.evaluate(Matrix([[1, 2], [3, 4]])) == 30
            assert oracle.evaluate(Matrix([["1/2", 0], [0, 0]])) == F(1, 4)

    def test_fractional_query_encoding(self):
        with ExternalOracle(ORACLE) as oracle:
            assert oracle.evaluate(Matrix([["3/5", "3/10"], ["2/5", "7/10"]])) == (
                F(9, 25) + F(9, 100) + F(4, 25) + F(49, 100)
            )

    def test_repeated_matrix_is_answered_from_the_first_reply(self):
        counter = "import sys\nfor i, line in enumerate(sys.stdin, 1):\n    print(i, flush=True)\n"
        with ExternalOracle([sys.executable, "-c", counter]) as oracle:
            assert oracle.evaluate(Matrix([[1, 2]])) == 1
            assert oracle.evaluate(Matrix([[3, 4]])) == 2
            assert oracle.evaluate(Matrix([[1, 2]])) == 1
            assert oracle.evaluate(Matrix([["1/2", 4]])) == 3

    def test_dead_process(self):
        with ExternalOracle(["/bin/false"]) as oracle:
            with pytest.raises(OracleError):
                oracle.evaluate(Matrix([[1]]))

    def test_exited_oracle_is_not_restarted(self):
        with ExternalOracle(["sh", "-c", "read x; echo 1"]) as oracle:
            assert oracle.evaluate(Matrix([[1]])) == 1
            oracle._process.wait(timeout=10)
            with pytest.raises(OracleError, match="exited before the next query"):
                oracle.evaluate(Matrix([[1]]))

    def test_garbage_reply(self):
        with ExternalOracle([sys.executable, "-c", "print('pelican'); import sys; sys.stdout.flush(); sys.stdin.read()"]) as oracle:
            with pytest.raises(OracleError):
                oracle.evaluate(Matrix([[1]]))

    def test_chatty_stderr_does_not_block(self):
        # 4 KiB of stderr per query fills a 64 KiB pipe after 16 queries; the
        # run goes in a subprocess so a blocked oracle fails on the timeout.
        chatty = (
            "import sys\n"
            "for line in sys.stdin:\n"
            "    sys.stderr.write('x' * 4096 + '\\n')\n"
            "    sys.stderr.flush()\n"
            "    print(1, flush=True)\n"
        )
        script = (
            "import sys\n"
            "from shapedparts.linalg import Matrix\n"
            "from shapedparts.objectives import ExternalOracle\n"
            f"with ExternalOracle([sys.executable, '-c', {chatty!r}]) as oracle:\n"
            "    print(sum(oracle.evaluate(Matrix([[i]])) for i in range(100)))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "100"

    def test_death_note_quotes_stderr_tail(self):
        dying = "import sys; sys.stderr.write('a' * 3000 + 'TAILMARK'); sys.exit(3)"
        with ExternalOracle([sys.executable, "-c", dying]) as oracle:
            with pytest.raises(OracleError) as caught:
                oracle.evaluate(Matrix([[1]]))
        message = str(caught.value)
        assert "code 3" in message and message.endswith("TAILMARK)")
        assert "a" * 500 not in message

    def test_missing_binary(self):
        with ExternalOracle(["/nonexistent/oracle"]) as oracle:
            with pytest.raises(OracleError):
                oracle.evaluate(Matrix([[1]]))
